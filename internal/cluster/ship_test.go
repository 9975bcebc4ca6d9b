package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestNextEpoch: a missing REPL_EPOCH starts at 1 and each call bumps it
// durably; a file that exists but does not parse — what a torn write leaves —
// is a boot error, never a silent restart at epoch 1, which a follower may
// already hold a cursor for.
func TestNextEpoch(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		if got, err := NextEpoch(dir); err != nil || got != want {
			t.Fatalf("NextEpoch = %d, %v; want %d", got, err, want)
		}
	}
	path := filepath.Join(dir, "REPL_EPOCH")
	if b, _ := os.ReadFile(path); string(b) != "3" {
		t.Fatalf("REPL_EPOCH holds %q, want 3", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files in the replication directory, want only REPL_EPOCH", len(ents))
	}
	for _, content := range []string{"", "garbage", "12x", "-4"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := NextEpoch(dir); err == nil {
			t.Fatalf("REPL_EPOCH %q: NextEpoch = %d, want an error", content, got)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Fatalf("REPL_EPOCH %q was overwritten with %q", content, b)
		}
	}
	if got, err := NextEpoch(""); err != nil || got != 1 {
		t.Fatalf("memory-only NextEpoch = %d, %v; want 1", got, err)
	}
}
