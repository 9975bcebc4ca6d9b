// Package frame is the repo's one binary layer (DESIGN.md §8, "Binary layer"): the two
// length+CRC frame shapes everything on disk and on the wire is built from,
// and the varint field encoder/decoder their payloads are written with. It
// is a leaf — standard library only — so storage, trace, cloud and cluster
// all share one writer, one bounded reader and one set of truncation rules.
//
//	fixed shape (disk: WAL records, PMSNAP02 chunks)
//	  | u32 len | u32 CRC-32 IEEE(payload) | payload |        little-endian
//	  end marker: | u32 0 | u32 EndSum(magic) |               streams with a magic only
//	var shape (streams: trace container, wire observation blocks)
//	  | uvarint len (>0) | u32 CRC-32 IEEE(payload) | payload |
//	  end marker: | 0x00 |
//
// A reader reports exactly one of: a payload; io.EOF — the stream ended
// cleanly before the first byte of a frame; ErrEnd — the end marker;
// ErrTruncated — the stream ended inside a frame; ErrCorrupt — a length over
// the caller's bound, a checksum mismatch or a bad end marker. Any other
// error is the underlying reader's own and passes through unchanged, so a
// policy error such as *http.MaxBytesError keeps its type.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var (
	// ErrEnd is the in-band end marker: the writer finished deliberately.
	ErrEnd = errors.New("frame: end marker")
	// ErrTruncated reports input that ended inside a frame or a field.
	ErrTruncated = errors.New("frame: truncated")
	// ErrCorrupt reports a frame that is whole but wrong.
	ErrCorrupt = errors.New("frame: corrupt")
)

// FixedHeaderSize is the fixed shape's header: u32 length, u32 checksum.
const FixedHeaderSize = 8

// VarEnd is the var shape's end marker.
var VarEnd = []byte{0}

// AppendFixed appends payload as one fixed-shape frame.
func AppendFixed(dst, payload []byte) []byte {
	return append(AppendFixedHeader(dst, payload), payload...)
}

// AppendFixedHeader appends only the header of payload's fixed-shape frame,
// for a writer that sends a large payload from where it already is.
func AppendFixedHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// EndSum is the check field of a fixed-shape end marker: the CRC of the
// stream's magic, a non-zero constant, so a zero-filled torn tail can never
// pass for a deliberate end.
func EndSum(magic string) uint32 { return crc32.ChecksumIEEE([]byte(magic)) }

// AppendFixedEnd appends the fixed-shape end marker for a stream whose magic
// sums to end.
func AppendFixedEnd(dst []byte, end uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, 0), end)
}

// AppendVar appends payload as one var-shape frame. An empty payload would
// read back as the end marker; callers frame only non-empty payloads.
func AppendVar(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFixed reads one fixed-shape frame of at most max payload bytes into
// *scratch (grown as needed and reused across calls; the returned payload
// aliases it). end is EndSum of the stream's magic: a zero-length frame is
// then the end marker and must carry it. With end == 0 the stream has no end
// marker (the WAL) and a zero-length frame is an empty payload.
func ReadFixed(r io.Reader, max int, end uint32, scratch *[]byte) ([]byte, error) {
	hdr := grow(scratch, FixedHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ReadErr(err)
	}
	n, sum := binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 && end != 0 {
		if sum != end {
			return nil, fmt.Errorf("%w: bad end marker", ErrCorrupt)
		}
		return nil, ErrEnd
	}
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte bound", ErrCorrupt, n, max)
	}
	payload := grow(scratch, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ReadErr(err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// ReadVar reads one var-shape frame of at most max payload bytes into
// *scratch (grown as needed and reused across calls; the returned payload
// aliases it).
func ReadVar(br *bufio.Reader, max int, scratch *[]byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ReadErr(err)
	}
	if n == 0 {
		return nil, ErrEnd
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte bound", ErrCorrupt, n, max)
	}
	buf := grow(scratch, 4+int(n)) // checksum and payload are contiguous: one read
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, ReadErr(err)
	}
	if crc32.ChecksumIEEE(buf[4:]) != binary.LittleEndian.Uint32(buf) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return buf[4:], nil
}

// ReadErr classifies a failed read inside a frame or a message header: the
// stream ending is ErrTruncated, anything else is the reader's own error.
func ReadErr(err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncated
	}
	return err
}

func grow(scratch *[]byte, n int) []byte {
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	return (*scratch)[:n]
}
