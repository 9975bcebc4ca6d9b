package cloud

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestParentFormatPin is the cross-commit format pin for the streamed wire:
// testdata/parent/discover.bin is a binary discover upload (header, two
// observation blocks, end marker) captured from the client of the commit
// before internal/frame existed. Today's server decodes it and today's
// client re-encodes the decoded request to the same bytes.
func TestParentFormatPin(t *testing.T) {
	want, err := os.ReadFile("testdata/parent/discover.bin")
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{maxBody: DefaultMaxBodyBytes}
	var req DiscoverPlacesRequest
	w := httptest.NewRecorder()
	if !s.decodeDiscoverBinary(w, httptest.NewRequest(http.MethodPost, PathPlacesDiscover, bytes.NewReader(want)), &req) {
		t.Fatalf("parent upload refused: %d %s", w.Code, w.Body)
	}
	if !req.Delta || req.Cursor != 41 || req.PrefixHash != 0x0123456789abcdef || len(req.Observations) != 700 {
		t.Fatalf("parent upload decoded to delta=%v cursor=%d hash=%x with %d observations",
			req.Delta, req.Cursor, req.PrefixHash, len(req.Observations))
	}
	var got bytes.Buffer
	if err := writeDiscoverFrames(&got, &req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("parent upload re-encodes to different bytes (%d vs %d)", got.Len(), len(want))
	}
}
