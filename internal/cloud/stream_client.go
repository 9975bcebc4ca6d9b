package cloud

import (
	"context"
	"io"
	"net/http"

	"repro/internal/frame"
	"repro/internal/trace"
)

// DefaultStreamBatchSize is how many observations StreamObservations packs
// into one stream batch when the caller passes 0.
const DefaultStreamBatchSize = 64

// StreamObservations ships observations to the cloud over the streaming
// ingest endpoint (POST /api/v1/observations/stream): one long-lived request
// whose body is a sequence of JSON batches, each appended WAL-durably and fed
// to the online event detector as it arrives — subscribers see the resulting
// place events while the device is still uploading.
//
// Like DiscoverPlaces, the call is cursor-aware: observations the server
// already acknowledged are skipped client-side, so handing it the full trace
// streams only the new tail (and an up-to-date client streams nothing,
// getting back the current position). On success the acknowledged cursor is
// stored, so a later DiscoverPlaces delta-syncs instead of re-uploading.
//
// The stream appends state as it goes, so the request is a single attempt
// bounded only by ctx — never retried by the retry policy, never under its
// per-try timeout. Like every call it is ring-routed, replayed once after a
// 421 (answered only while nothing of the stream has been appended), and
// recovers the token once after a 401. A stream that fails after some batches
// landed leaves the stored cursor behind the server: DiscoverPlaces, whose
// delta upload dedups the overlap, catches it up.
func (c *Client) StreamObservations(ctx context.Context, obs []trace.GSMObservation, batchSize int) (StreamResult, error) {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatchSize
	}
	if cursor, _, delta := c.traceCursor(obs); delta {
		obs = obs[cursor:]
	}
	var res StreamResult
	// Batches hit the wire as they are encoded: the server ingests and
	// publishes batch by batch, which is the point of the streaming path.
	rq := &request{
		method: http.MethodPost,
		path:   PathObservationsStream,
		header: http.Header{"Content-Type": {"application/json"}},
		stream: func(w io.Writer) error {
			var buf []byte
			for start := 0; start < len(obs); start += batchSize {
				end := min(start+batchSize, len(obs))
				var err error
				if buf, err = appendStreamBatchJSON(buf[:0], &StreamBatch{Observations: obs[start:end]}); err != nil {
					return err
				}
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
			return nil
		},
		auth:      true,
		longLived: true,
		into:      &res,
	}
	if c.useBinary() {
		rq.header = http.Header{"Content-Type": {ContentTypeBinary}, "Accept": {acceptBinary}}
		rq.stream = func(w io.Writer) error { return writeObsFrames(w, obs, batchSize) }
	}
	if err := c.withTokenRecovery(ctx, rq); err != nil {
		return StreamResult{}, err
	}
	c.storeCursor(res.TraceLen, res.TraceHash)
	return res, nil
}

// writeObsFrames emits the binary observation stream: the two-byte
// version/kind header, one CRC frame per batch, and the explicit end marker
// so the server can tell a deliberate close from a dropped link.
func writeObsFrames(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	if _, err := w.Write([]byte{wireVersion, wireKindObsStream}); err != nil {
		return err
	}
	return writeObsBlocks(w, obs, batchSize)
}

// writeObsBlocks writes obs as CRC frames of batchSize observations each,
// then the end marker.
func writeObsBlocks(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	var e trace.BinaryEncoder
	var block []byte
	for start := 0; start < len(obs); start += batchSize {
		end := min(start+batchSize, len(obs))
		e.Reset(e.Buf)
		trace.AppendObservations(&e, obs[start:end])
		block = frame.AppendVar(block[:0], e.Buf)
		if _, err := w.Write(block); err != nil {
			return err
		}
	}
	_, err := w.Write(frame.VarEnd)
	return err
}

// writeDiscoverFrames emits one binary discover request: the fixed header
// (version, kind, flags, cursor, prefix hash) followed by CRC-framed
// observation blocks and the end marker, written as encoded so the full
// history is never serialized at once.
func writeDiscoverFrames(w io.Writer, dreq *DiscoverPlacesRequest) error {
	var e trace.BinaryEncoder
	e.Byte(wireVersion)
	e.Byte(wireKindDiscoverRequest)
	var flags byte
	if dreq.Delta {
		flags |= 1
	}
	e.Byte(flags)
	e.Uvarint(uint64(dreq.Cursor))
	e.Fixed64(dreq.PrefixHash)
	if _, err := w.Write(e.Buf); err != nil {
		return err
	}
	return writeObsBlocks(w, dreq.Observations, wireFrameObs)
}
