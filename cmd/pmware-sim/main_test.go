package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
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

var update = flag.Bool("update", false, "rewrite testdata/default.golden from this build's output")

// TestDefaultStudyGolden pins the paper's result: the default study (16
// participants, 14 days, seed 2014) must print exactly testdata/default.golden
// — §4's 81.58 / 15.79 / 2.63 % and PlaceADs 461 : 90 among it. A change
// meant to move the study regenerates the file with -update and shows the
// diff.
func TestDefaultStudyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 16 x 14 study")
	}
	// The study runs on one goroutine; one P keeps its garbage collection
	// on that core too, leaving the other cores to whatever test binaries
	// go test runs beside this one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "default.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("default study output differs from %s (rerun with -update if the change is meant to move it)\n--- got\n%s--- want\n%s", golden, out.Bytes(), want)
	}
}
