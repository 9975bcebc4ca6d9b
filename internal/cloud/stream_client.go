package cloud

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

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
// The stream appends state as it goes, so the request is not retried by the
// retry policy; a failed stream is resumed by calling again (the cursor —
// refreshed by the returned StreamResult — restarts from what was durably
// appended). A 401 recovers the token once, exactly like every other
// authenticated call.
func (c *Client) StreamObservations(ctx context.Context, obs []trace.GSMObservation, batchSize int) (StreamResult, error) {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatchSize
	}
	_, gen := c.snapshotToken()
	res, err := c.streamOnce(ctx, obs, batchSize)
	var se *statusError
	if errors.As(err, &se) && se.Status == http.StatusUnauthorized {
		if rerr := c.recoverToken(ctx, gen); rerr == nil {
			res, err = c.streamOnce(ctx, obs, batchSize)
		}
	}
	if err != nil {
		return StreamResult{}, err
	}
	c.storeCursor(res.TraceLen, res.TraceHash)
	return res, nil
}

func (c *Client) streamOnce(ctx context.Context, obs []trace.GSMObservation, batchSize int) (StreamResult, error) {
	tok, _ := c.snapshotToken()
	if tok == "" {
		return StreamResult{}, &statusError{Status: http.StatusUnauthorized, Msg: "no token (register first)"}
	}
	if cursor, _, delta := c.traceCursor(obs); delta {
		obs = obs[cursor:]
	}
	binary := c.useBinary()

	// Feed the body through a pipe so batches hit the wire as they are
	// encoded (chunked transfer, no Content-Length): the server ingests and
	// publishes batch by batch, which is the point of the streaming path.
	pr, pw := io.Pipe()
	go func() {
		cw := &wireCountWriter{w: pw, m: c.m.wireSentBytes}
		if binary {
			if err := writeObsFrames(cw, obs, batchSize); err != nil {
				pw.CloseWithError(err)
				return
			}
			pw.Close()
			return
		}
		enc := json.NewEncoder(cw)
		for start := 0; start < len(obs); start += batchSize {
			end := min(start+batchSize, len(obs))
			if err := enc.Encode(StreamBatch{Observations: obs[start:end]}); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+PathObservationsStream, pr)
	if err != nil {
		pr.Close()
		return StreamResult{}, err
	}
	if binary {
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set("Accept", ContentTypeBinary+", application/json;q=0.5")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	c.m.attempts.Inc()
	resp, err := c.http.Do(req)
	if err != nil {
		c.m.connErrors.Inc()
		return StreamResult{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	var res StreamResult
	if err := c.finishResponse(resp, &res); err != nil {
		return StreamResult{}, err
	}
	return res, nil
}

// writeObsFrames emits the binary observation stream: the two-byte
// version/kind header, one CRC frame per batch, and the explicit end marker
// so the server can tell a deliberate close from a dropped link.
func writeObsFrames(w io.Writer, obs []trace.GSMObservation, batchSize int) error {
	if _, err := w.Write([]byte{wireVersion, wireKindObsStream}); err != nil {
		return err
	}
	var e trace.BinaryEncoder
	var frame []byte
	for start := 0; start < len(obs); start += batchSize {
		end := min(start+batchSize, len(obs))
		e.Reset(e.Buf)
		trace.AppendObservations(&e, obs[start:end])
		frame = appendWireFrame(frame[:0], e.Buf)
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	_, err := w.Write(wireFrameEnd)
	return err
}

// discoverBinary performs one binary streamed discover call with the same
// 401 single-flight token recovery as authedCall; each retry attempt builds
// a fresh pipe.
func (c *Client) discoverBinary(ctx context.Context, dreq *DiscoverPlacesRequest, out *DiscoverPlacesResponse) error {
	_, gen := c.snapshotToken()
	err := c.discoverBinaryRetry(ctx, dreq, out)
	var se *statusError
	if !errors.As(err, &se) || se.Status != http.StatusUnauthorized {
		return err
	}
	if rerr := c.recoverToken(ctx, gen); rerr != nil {
		return err
	}
	return c.discoverBinaryRetry(ctx, dreq, out)
}

func (c *Client) discoverBinaryRetry(ctx context.Context, dreq *DiscoverPlacesRequest, out *DiscoverPlacesResponse) error {
	attempt := 0
	return c.retry.withSleepObserver(c.m.observeBackoff).run(ctx, true, func(ctx context.Context) error {
		attempt++
		if attempt > 1 {
			c.m.retries.Inc()
		}
		return c.discoverOnce(ctx, dreq, out)
	})
}

// discoverOnce streams one binary discover request: the fixed header
// (version, kind, flags, cursor, prefix hash) followed by CRC-framed
// observation blocks and the end marker, all through a pipe so the full
// history is never serialized at once.
func (c *Client) discoverOnce(ctx context.Context, dreq *DiscoverPlacesRequest, out *DiscoverPlacesResponse) error {
	tok, _ := c.snapshotToken()
	if tok == "" {
		return &statusError{Status: http.StatusUnauthorized, Msg: "no token (register first)"}
	}
	pr, pw := io.Pipe()
	go func() {
		cw := &wireCountWriter{w: pw, m: c.m.wireSentBytes}
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
		if _, err := cw.Write(e.Buf); err != nil {
			pw.CloseWithError(err)
			return
		}
		var frame []byte
		obs := dreq.Observations
		for start := 0; start < len(obs); start += wireFrameObs {
			end := min(start+wireFrameObs, len(obs))
			e.Reset(e.Buf)
			trace.AppendObservations(&e, obs[start:end])
			frame = appendWireFrame(frame[:0], e.Buf)
			if _, err := cw.Write(frame); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if _, err := cw.Write(wireFrameEnd); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Close()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+PathPlacesDiscover, pr)
	if err != nil {
		pr.Close()
		return err
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary+", application/json;q=0.5")
	req.Header.Set("Authorization", "Bearer "+tok)
	c.m.attempts.Inc()
	resp, err := c.http.Do(req)
	if err != nil {
		c.m.connErrors.Inc()
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		resp.Body.Close()
	}()
	return c.finishResponse(resp, out)
}
