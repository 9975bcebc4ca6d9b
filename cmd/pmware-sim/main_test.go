package main

import (
	"io"
	"os"
	"testing"

	"repro/internal/cloud"
)

// TestDataDirServesStudyOutput: a -http -data-dir study leaves a data
// directory that OpenStore (what pmware-cloud -data-dir runs) recovers the
// study's users and places from; -data-dir without -http is a usage error
// that touches nothing.
func TestDataDirServesStudyOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-data-dir", dir}, io.Discard); err == nil {
		t.Error("-data-dir without -http accepted")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("usage error wrote %d entries into the data dir", len(ents))
	}

	if err := run([]string{"-http", "-data-dir", dir, "-participants", "2", "-days", "3", "-seed", "77"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	store, err := cloud.OpenStore(dir, cloud.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if n := store.UserCount(); n != 2 {
		t.Errorf("recovered %d users, want the study's 2", n)
	}
	for _, uid := range []string{"user-0001", "user-0002"} {
		if len(store.Places(uid)) == 0 {
			t.Errorf("%s has no places after the study", uid)
		}
	}
}
