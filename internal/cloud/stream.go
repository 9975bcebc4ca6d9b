package cloud

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/trace"
	"repro/internal/world"
)

// This file is the PCI side of the real-time event subsystem (DESIGN.md
// §13): the streaming ingest endpoint that turns appended observations into
// published transitions, and the SSE subscription endpoint that fans them
// out. The ingest keeps no pipelines of its own: it feeds the user's entry in
// the discovery pool's cache (discoverPool.lockPipe), so a trace streamed by
// day and discovered at night is segmented once. Both routes are mounted
// outside the request-timeout middleware and skip decode()'s MaxBytesReader:
// the connections are long-lived by design, so they outlive any per-request
// deadline, and a stream's cumulative bytes legitimately exceed any
// per-request cap.

// appendAndDetect appends one stream batch to the user's trace, WAL-durably,
// and feeds the user's detector — the discovery pool's cached pipeline —
// everything of the trace it has not consumed. It returns the transitions
// that became final, including those of observations a discovery run folded
// in since the last batch. The entry lock spans both steps: a discovery
// that rebuilt the detector between them would catch up silently over this
// batch and its transitions would never be published. On a rebuild here,
// everything before the batch is caught up silently — its transitions either
// were already emitted by a previous incarnation or belong to a
// wholesale-replaced history nobody streamed.
func (s *Server) appendAndDetect(uid string, obs []trace.GSMObservation) (TraceStatus, []events.Transition, error) {
	e := s.pool.lockPipe(uid)
	defer e.mu.Unlock()
	st, err := s.store.AppendTrace(uid, obs)
	if err != nil {
		return st, nil, err
	}
	var out []events.Transition
	s.pool.withDetector(e, uid, len(obs), func(v *traceView, det *events.Detector) {
		out = det.Feed(v.From(det.Len()))
	})
	return st, out, nil
}

// handleObsStream is POST /api/v1/observations/stream: a sequence of
// observation batches decoded as they arrive — JSON documents or, under
// Content-Type: application/x-pmware-bin, CRC-framed binary observation
// blocks. Each batch is appended WAL-durably, fed to the online detector,
// and its transitions published to the fanout hub before the next batch is
// read — so a subscriber sees the place entry while the device is still
// streaming. One summary response is written when the client closes its
// side; in both codecs end-of-stream at a batch boundary is the clean end.
func (s *Server) handleObsStream(w http.ResponseWriter, r *http.Request, uid string) {
	// Deliberately no MaxBytesReader (see the file comment): the regression
	// test pins that a stream outliving -max-body stays open.
	var appended, published int
	var status TraceStatus

	// ingest persists and publishes one batch; it answers the error response
	// itself and returns false to stop the stream.
	ingest := func(obs []trace.GSMObservation) bool {
		st, transitions, err := s.appendAndDetect(uid, obs)
		switch {
		case err == nil:
			status = st
		case errors.Is(err, ErrObservationOrder):
			writeError(w, http.StatusConflict, "%v", err)
			return false
		case errors.Is(err, ErrNotOwner) && appended > 0:
			// The user was handed off mid-upload, after earlier batches of
			// this stream were appended and moved with it. The client replays
			// a 421 whole, which is only safe while the request has touched
			// no state: end the call instead, naming the position reached.
			writeError(w, http.StatusServiceUnavailable,
				"user %s was handed off after %d observations of this stream (trace position %d); resume on its new owner",
				uid, appended, status.Len)
			return false
		default:
			// ErrNotOwner here is the first batch racing a handoff: the gate
			// admitted the stream, the user moved before anything landed.
			s.storeError(w, uid, err, http.StatusInternalServerError, "appending observations: %v", err)
			return false
		}
		if n := len(obs); n > 0 {
			appended += n
			s.pool.m.appended.Add(uint64(n))
		}
		for _, t := range transitions {
			published += s.publishTransition(uid, t)
		}
		return true
	}

	switch requestCodec(r) {
	case codecBinary:
		if !s.readObsStreamBinary(w, r, &appended, ingest) {
			return
		}
	case codecJSON:
		// The stream as a whole is exempt from -max-body; each batch document
		// is held to it, as the binary codec holds each frame to maxWireFrame.
		jr := trace.NewJSONReader(r.Body, s.maxBody)
		defer jr.Release()
		for {
			var batch StreamBatch
			err := readStreamBatchJSON(jr, &batch)
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, trace.ErrJSONTooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"stream batch over %d bytes after %d observations", s.maxBody, appended)
				return
			}
			if err != nil {
				// Mid-stream garbage: everything before it is already durable;
				// report what happened with the position reached.
				writeError(w, http.StatusBadRequest, "bad stream batch after %d observations: %v", appended, err)
				return
			}
			if !ingest(batch.Observations) {
				return
			}
		}
	default:
		unsupportedMediaType(w, r)
		return
	}
	if status == (TraceStatus{}) {
		status = s.store.TraceStatusFor(uid)
	}
	s.reply(w, r, http.StatusOK, &StreamResult{
		TraceLen:  status.Len,
		TraceHash: status.Hash,
		Appended:  appended,
		Events:    published,
	})
}

// readObsStreamBinary drains a binary observation stream: a two-byte
// version/kind header, then CRC-framed observation blocks until the client
// closes. EOF at a frame boundary is the clean end (mirroring the JSON
// decoder loop); a stream that dies mid-frame, or a frame that fails its
// CRC, is a 400 with everything before it already durable.
func (s *Server) readObsStreamBinary(w http.ResponseWriter, r *http.Request, appended *int, ingest func([]trace.GSMObservation) bool) bool {
	fail := func(err error) bool {
		writeError(w, http.StatusBadRequest, "bad stream batch after %d observations: %v", *appended, err)
		return false
	}
	br := bufio.NewReader(r.Body)
	if err := readWireHeader(br, wireKindObsStream); err != nil {
		return fail(err)
	}
	ok := true // false once ingest refused a block (and answered the request)
	_, err := readObsBlocks(br, func(obs []trace.GSMObservation) bool {
		ok = ingest(obs)
		return ok
	})
	if err != nil {
		return fail(err)
	}
	return ok
}

// publishTransition enriches one canonical transition into a wire event
// (matched place, disclosed position, and — after an exit — a predicted
// next visit when the analytics engine is confident) and hands it to the
// hub. Returns how many events were published.
func (s *Server) publishTransition(uid string, t events.Transition) int {
	ev := events.Event{
		Type:    t.Kind,
		UserID:  uid,
		At:      t.At,
		Start:   t.Start,
		PlaceID: -1,
	}
	cells := t.Cells
	if len(cells) == 0 {
		cells = t.Hint
	}
	if len(cells) > 0 {
		ev.PlaceID, ev.Label = s.matchPlace(uid, cells)
		ev.Center, ev.AccuracyMeters = s.cellCentroid(cells)
	}
	n := 0
	if s.hub.Publish(ev) {
		n++
	}
	if t.Kind == events.KindPlaceExit && ev.PlaceID >= 0 {
		// The analytics engine keys visits by the PMS profile id namespace
		// ("p<N>", see core fusion); absent or unconfident history simply
		// means no prediction event.
		next, confident := s.analytics.PredictNextVisit(uid, "p"+strconv.FormatInt(ev.PlaceID, 10), t.At)
		if confident {
			pred := ev
			pred.Type = events.KindPredictedVisit
			pred.Start = time.Time{}
			pred.PredictedAt = next
			if s.hub.Publish(pred) {
				n++
			}
		}
	}
	return n
}

// matchPlace finds the stored place whose cell set overlaps the stay's
// cells the most. Returns (-1, "") when the user has no discovered places
// or nothing overlaps — a brand-new place before discovery has seen it.
func (s *Server) matchPlace(uid string, cells []world.CellID) (int64, string) {
	places := s.store.Places(uid)
	bestID, bestLabel, bestOverlap := int64(-1), "", 0
	for _, p := range places {
		set := make(map[world.CellID]struct{}, len(p.Cells))
		for _, c := range p.Cells {
			set[c] = struct{}{}
		}
		overlap := 0
		for _, c := range cells {
			if _, ok := set[c]; ok {
				overlap++
			}
		}
		if overlap > bestOverlap {
			bestID, bestLabel, bestOverlap = int64(p.ID), p.Label, overlap
		}
	}
	return bestID, bestLabel
}

// cellCentroid geolocates a stay from its cell set: the mean of the known
// cell positions, disclosed at cell-tower accuracy. Zero when no cell is in
// the database.
func (s *Server) cellCentroid(cells []world.CellID) (geo.LatLng, float64) {
	if s.cells == nil {
		return geo.LatLng{}, 0
	}
	var lat, lng float64
	n := 0
	for _, c := range cells {
		if e, ok := s.cells.Lookup(c); ok {
			lat += e.Lat
			lng += e.Lng
			n++
		}
	}
	if n == 0 {
		return geo.LatLng{}, 0
	}
	return geo.LatLng{Lat: lat / float64(n), Lng: lng / float64(n)}, core.GranularityBuilding.AccuracyMeters()
}

// handleEventsSubscribe is GET /api/v1/events/subscribe: a text/event-stream
// of the authenticated user's place events. `granularity=area|building|room`
// clamps every event's positional payload to the tier (default room = full
// precision); the Last-Event-ID header resumes a dropped connection.
func (s *Server) handleEventsSubscribe(w http.ResponseWriter, r *http.Request, uid string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	gran := core.GranularityRoom
	if v := r.URL.Query().Get("granularity"); v != "" {
		g, ok := parseGranularity(v)
		if !ok {
			writeError(w, http.StatusBadRequest, "bad granularity %q", v)
			return
		}
		gran = g
	}
	var lastSeq uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		lastSeq = n
	}

	sub := s.hub.Subscribe(uid, lastSeq)
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, "event hub shut down")
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	if sub.Gap {
		// The client's Last-Event-ID predates the replay ring: it must
		// resynchronize authoritative state (places, profiles) out of band.
		if events.WriteControl(w, events.KindReset, sub.HeadSeq) != nil {
			return
		}
	}
	flusher.Flush()

	heartbeat := time.NewTicker(s.eventHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				if sub.Evicted() {
					// Final frame: tell the consumer it was too slow, so
					// its reconnect policy can distinguish eviction from a
					// network fault.
					_ = events.WriteControl(w, events.KindEvicted, 0)
				}
				return
			}
			if events.WriteEvent(w, events.Degrade(ev, gran)) != nil {
				return
			}
			flusher.Flush()
		case <-heartbeat.C:
			if events.WriteHeartbeat(w) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// parseGranularity maps the wire names onto the core privacy tiers.
func parseGranularity(v string) (core.Granularity, bool) {
	switch v {
	case "area":
		return core.GranularityArea, true
	case "building":
		return core.GranularityBuilding, true
	case "room":
		return core.GranularityRoom, true
	}
	return 0, false
}
