package main

import (
	"bytes"
	"errors"
	"testing"
)

// TestAllIsEveryFigure: -fig all prints exactly what -fig 1, 2, study and
// ablations print one after another, though it runs the study only once.
func TestAllIsEveryFigure(t *testing.T) {
	size := []string{"-participants", "2", "-days", "3"}
	var all, parts bytes.Buffer
	if err := run(append([]string{"-fig", "all"}, size...), &all); err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"1", "2", "study", "ablations"} {
		if err := run(append([]string{"-fig", fig}, size...), &parts); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
	}
	if !bytes.Equal(all.Bytes(), parts.Bytes()) {
		t.Errorf("-fig all differs from the figures printed one by one\n--- all\n%s--- one by one\n%s", all.Bytes(), parts.Bytes())
	}
}

func TestUnknownFig(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fig", "3"}, &out)
	if !errors.Is(err, errUnknownFig) {
		t.Errorf("-fig 3: err = %v, want errUnknownFig", err)
	}
	if out.Len() != 0 {
		t.Errorf("-fig 3 printed %q", out.String())
	}
}
