package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// Receiver stream admission: a sender whose stamped ring version is stale —
// or who the verify callback says is no longer a legitimate primary — must
// be refused before a single record is applied, on both the batch and the
// resync endpoint. The resync path is the dangerous one: it is exactly the
// request a restarted pre-failover primary uses to wholesale-replace its
// promoted heir's data.

// recApplier records every applied record and counts the runs it was handed.
type recApplier struct {
	recs    []ShipRecord
	batches int
}

func (a *recApplier) ApplyShippedBatch(recs []ShipRecord) error {
	a.recs = append(a.recs, recs...)
	a.batches++
	return nil
}

func openTestReceiver(t *testing.T, applier Applier, verify func(string, uint64) error) (*Receiver, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	r, err := OpenReceiver(ReceiverConfig{
		Applier:      applier,
		DataShards:   2,
		VerifyStream: verify,
		Metrics:      reg,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, reg
}

// post sends b, in the binary framing, to one of the receiver's endpoints.
func post(t *testing.T, h http.HandlerFunc, b BatchRequest) BatchResponse {
	t.Helper()
	req := httptest.NewRequest("POST", "/", bytes.NewReader(EncodeBatchBinary(nil, &b)))
	req.Header.Set("Content-Type", ContentTypeReplBinary)
	w := httptest.NewRecorder()
	h(w, req)
	var resp BatchResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

func postBatch(t *testing.T, r *Receiver, b BatchRequest) BatchResponse {
	t.Helper()
	return post(t, r.HandleBatch, b)
}

func postSync(t *testing.T, r *Receiver, b BatchRequest) BatchResponse {
	t.Helper()
	return post(t, r.HandleSync, b)
}

func testRecords(n int) []ShipRecord {
	out := make([]ShipRecord, n)
	for i := range out {
		out[i] = ShipRecord{Engine: EngineMain, Shard: i % 2, Rec: []byte(fmt.Sprintf("rec-%d", i))}
	}
	return out
}

// TestReceiverAdmissionRejectsStaleRing pins the zombie-primary guard: a
// resync or batch stamped with an older ring version than the receiver
// holds is refused with zero records applied and an unmoved cursor.
func TestReceiverAdmissionRejectsStaleRing(t *testing.T) {
	const localRing = 3
	applier := &recApplier{}
	verify := func(from string, rv uint64) error {
		if rv < localRing {
			return fmt.Errorf("stale ring v%d (this node holds v%d)", rv, localRing)
		}
		return nil
	}
	r, reg := openTestReceiver(t, applier, verify)

	// The zombie's resync: ring v1 from its boot flags.
	sresp := postSync(t, r, BatchRequest{
		From: "zombie", Epoch: 2, Start: 0, RingVersion: 1,
		DataShards: 2, TraceShards: 2, Records: testRecords(4),
	})
	if sresp.Error == "" {
		t.Fatalf("stale resync accepted: %+v", sresp)
	}
	if len(applier.recs) != 0 {
		t.Fatalf("stale resync applied %d records", len(applier.recs))
	}
	if e, s := r.Cursor("zombie"); e != 0 || s != 0 {
		t.Fatalf("stale resync moved cursor to %d/%d", e, s)
	}

	// Same for a batch.
	bresp := postBatch(t, r, BatchRequest{
		From: "zombie", Epoch: 2, Start: 1, RingVersion: 1,
		DataShards: 2, TraceShards: 2, Records: testRecords(2),
	})
	if bresp.Error == "" {
		t.Fatalf("stale batch accepted: %+v", bresp)
	}
	if len(applier.recs) != 0 {
		t.Fatalf("stale batch applied %d records", len(applier.recs))
	}
	if got := reg.Counter("pci_repl_batches_rejected_total").Value(); got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}

	// A current-ring sender is admitted: resync re-baselines, batch resumes.
	sresp = postSync(t, r, BatchRequest{
		From: "live", Epoch: 1, Start: 0, RingVersion: localRing,
		DataShards: 2, TraceShards: 2, Records: testRecords(3),
	})
	if sresp.Error != "" {
		t.Fatalf("live resync refused: %+v", sresp)
	}
	bresp = postBatch(t, r, BatchRequest{
		From: "live", Epoch: 1, Start: 1, RingVersion: localRing,
		DataShards: 2, TraceShards: 2, Records: testRecords(2),
	})
	if bresp.Error != "" || bresp.Acked != 2 {
		t.Fatalf("live batch: %+v", bresp)
	}
	if len(applier.recs) != 5 {
		t.Fatalf("applied %d records, want 5", len(applier.recs))
	}
}

// TestReceiverRefusesOtherWireVersion: a peer built before the record codec
// speaks wire v2 with JSON records inside, and one built before the single
// storage engine speaks v3, whose shard indices address two engines. A
// follower parks shipped records and decodes them only at promotion, so the
// refusal has to happen here: each parent commit's own body is answered 400
// naming the version it carries on all three endpoints, nothing applied, no
// cursor moved — and PostBatch hands that reason to the sender.
func TestReceiverRefusesOtherWireVersion(t *testing.T) {
	applier := &recApplier{}
	imported := 0
	reg := obs.NewRegistry()
	r, err := OpenReceiver(ReceiverConfig{
		Applier: applier, Import: func([]ShipRecord) error { imported++; return nil },
		DataShards: 8, Metrics: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := httptest.NewServer(http.HandlerFunc(r.HandleBatch))
	defer srv.Close()
	for _, v := range []int{2, 3} {
		body, err := os.ReadFile(fmt.Sprintf("testdata/parent/batch-v%d.bin", v))
		if err != nil {
			t.Fatal(err)
		}
		reason := fmt.Sprintf("wire version %d, want 4", v)
		for name, h := range map[string]http.HandlerFunc{"batch": r.HandleBatch, "resync": r.HandleSync, "handoff": r.HandleHandoff} {
			req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			req.Header.Set("Content-Type", ContentTypeReplBinary)
			w := httptest.NewRecorder()
			h(w, req)
			if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), reason) {
				t.Fatalf("%s: v%d body answered %d %q, want 400 naming version %d", name, v, w.Code, w.Body.String(), v)
			}
		}
		// The sender's error — what its "degraded after N failures" line logs —
		// carries the receiver's reason, not just the status.
		if _, err := PostBatch(srv.Client(), srv.URL, body); err == nil ||
			!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), reason) {
			t.Fatalf("PostBatch of a v%d body: %v, want an error naming 400 and version %d", v, err, v)
		}
	}
	if e, s := r.Cursor("n0"); len(applier.recs) != 0 || imported != 0 || e != 0 || s != 0 {
		t.Fatalf("old bodies applied %d records, imported %d, cursor %d/%d", len(applier.recs), imported, e, s)
	}
}

// TestReceiverRefusesOutsideOneEngine: a v4 record addresses one of the
// 1+2D shards of one engine with engine byte 0. A record carrying the old
// trace engine's byte, a shard index past 2D, or a header whose trace-shard
// count differs from its data-shard count is refused at admission on every
// endpoint — and no record of the request, the valid ones before it
// included, reaches the store.
func TestReceiverRefusesOutsideOneEngine(t *testing.T) {
	applier := &recApplier{}
	var imported []ShipRecord
	r, err := OpenReceiver(ReceiverConfig{
		Applier: applier, Import: func(recs []ShipRecord) error { imported = append(imported, recs...); return nil },
		DataShards: 2, Metrics: obs.NewRegistry(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for name, b := range map[string]BatchRequest{
		"engine byte 1": {Records: append(testRecords(3), ShipRecord{Engine: 1, Shard: 3, Rec: []byte("t")})},
		"shard 1+2D":    {Records: append(testRecords(3), ShipRecord{Shard: 5, Rec: []byte("t")})},
		"trace shards":  {TraceShards: 1, Records: testRecords(3)},
	} {
		b.From, b.Epoch, b.DataShards = "A", 1, 2
		if b.TraceShards == 0 {
			b.TraceShards = 2
		}
		for what, h := range map[string]http.HandlerFunc{"batch": r.HandleBatch, "resync": r.HandleSync, "handoff": r.HandleHandoff} {
			b.Start = 1
			if resp := post(t, h, b); resp.Error == "" {
				t.Fatalf("%s on %s: admitted (%+v)", name, what, resp)
			}
		}
	}
	if len(applier.recs) != 0 || len(imported) != 0 {
		t.Fatalf("refused requests journaled %d records and imported %d", len(applier.recs), len(imported))
	}
	// The last legal shard, 2D, is admitted.
	ok := BatchRequest{From: "A", Epoch: 1, Start: 1, DataShards: 2, TraceShards: 2, Records: []ShipRecord{{Shard: 4, Rec: []byte("t")}}}
	if resp := postSync(t, r, ok); resp.Error != "" || len(applier.recs) != 1 {
		t.Fatalf("record on shard 2D: %+v, %d applied", resp, len(applier.recs))
	}
}

// TestReceiverAdmissionRejectsTakenOverSender pins the same-version case: a
// sender the verify callback reports as failed over (its heir answers for
// its ranges) is refused even when its ring version is current.
func TestReceiverAdmissionRejectsTakenOverSender(t *testing.T) {
	applier := &recApplier{}
	verify := func(from string, rv uint64) error {
		if from == "dead" {
			return fmt.Errorf("sender %s is failed over", from)
		}
		return nil
	}
	r, _ := openTestReceiver(t, applier, verify)

	sresp := postSync(t, r, BatchRequest{
		From: "dead", Epoch: 3, Start: 0, RingVersion: 2,
		DataShards: 2, TraceShards: 2, Records: testRecords(2),
	})
	if sresp.Error == "" {
		t.Fatalf("taken-over resync accepted: %+v", sresp)
	}
	if len(applier.recs) != 0 {
		t.Fatalf("taken-over resync applied %d records", len(applier.recs))
	}
}

// TestReceiverAppliesRunsAsBatches pins the one apply path: the Applier gets
// one ApplyShippedBatch call per admitted run (not one apply per record),
// and the cursor advances by the full run. A batch that is not the binary
// framing — here the same batch as JSON — is answered 415 with nothing
// applied and the cursor where it was.
func TestReceiverAppliesRunsAsBatches(t *testing.T) {
	applier := &recApplier{}
	r, _ := openTestReceiver(t, applier, nil)

	if resp := postSync(t, r, BatchRequest{
		From: "A", Epoch: 1, Start: 0,
		DataShards: 2, TraceShards: 2, Records: testRecords(3),
	}); resp.Error != "" {
		t.Fatalf("resync: %+v", resp)
	}
	resp := postBatch(t, r, BatchRequest{
		From: "A", Epoch: 1, Start: 1,
		DataShards: 2, TraceShards: 2, Records: testRecords(5),
	})
	if resp.Error != "" || resp.Acked != 5 {
		t.Fatalf("batch: %+v", resp)
	}
	if applier.batches != 2 {
		t.Fatalf("ApplyShippedBatch called %d times, want 2 (one per run)", applier.batches)
	}
	if len(applier.recs) != 8 {
		t.Fatalf("applied %d records, want 8", len(applier.recs))
	}

	body, _ := json.Marshal(BatchRequest{
		From: "A", Epoch: 1, Start: 6,
		DataShards: 2, TraceShards: 2, Records: testRecords(2),
	})
	req := httptest.NewRequest("POST", PathReplBatch, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	r.HandleBatch(w, req)
	if w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON batch: status %d, want 415", w.Code)
	}
	if applier.batches != 2 || len(applier.recs) != 8 {
		t.Fatalf("JSON batch applied records: %d runs, %d records", applier.batches, len(applier.recs))
	}
	if e, s := r.Cursor("A"); e != 1 || s != 5 {
		t.Fatalf("JSON batch moved cursor to %d/%d, want 1/5", e, s)
	}
}

// TestReceiverOneSequence pins what the three endpoints share and where they
// differ: a handoff is admitted like a batch, applies through Import (never
// the Applier) and leaves the sender's stream cursor alone; and each endpoint
// answers the retired JSON envelope 415 with nothing applied, nothing counted.
func TestReceiverOneSequence(t *testing.T) {
	applier, imported := &recApplier{}, &recApplier{}
	reg := obs.NewRegistry()
	r, err := OpenReceiver(ReceiverConfig{
		Applier: applier, Import: imported.ApplyShippedBatch,
		DataShards: 2, Metrics: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if resp := postSync(t, r, BatchRequest{From: "A", Epoch: 4, Start: 9, DataShards: 2, TraceShards: 2, Records: testRecords(1)}); resp.Error != "" || resp.Acked != 9 {
		t.Fatalf("resync: %+v", resp)
	}
	if resp := post(t, r.HandleHandoff, BatchRequest{From: "A", DataShards: 2, TraceShards: 2, Records: testRecords(3)}); resp.Error != "" {
		t.Fatalf("handoff: %+v", resp)
	}
	if len(imported.recs) != 3 || len(applier.recs) != 1 {
		t.Fatalf("handoff imported %d records and shipped-applied %d, want 3 and the resync's 1", len(imported.recs), len(applier.recs))
	}
	if resp := post(t, r.HandleHandoff, BatchRequest{From: "A", DataShards: 3, TraceShards: 3, Records: testRecords(1)}); resp.Error == "" || len(imported.recs) != 3 {
		t.Fatalf("handoff with a foreign shard layout: %+v, %d imported", resp, len(imported.recs))
	}
	if e, s := r.Cursor("A"); e != 4 || s != 9 {
		t.Fatalf("handoff moved the stream cursor to %d/%d, want 4/9", e, s)
	}

	rejected := reg.Counter("pci_repl_batches_rejected_total").Value()
	body, _ := json.Marshal(BatchRequest{From: "A", Epoch: 4, Start: 10, DataShards: 2, TraceShards: 2, Records: testRecords(2)})
	for name, h := range map[string]http.HandlerFunc{"batch": r.HandleBatch, "sync": r.HandleSync, "handoff": r.HandleHandoff} {
		req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h(w, req)
		if w.Code != http.StatusUnsupportedMediaType {
			t.Errorf("JSON %s: status %d, want 415", name, w.Code)
		}
	}
	if e, s := r.Cursor("A"); e != 4 || s != 9 || len(imported.recs) != 3 || len(applier.recs) != 1 {
		t.Fatalf("JSON requests changed state: cursor %d/%d, %d imported, %d applied", e, s, len(imported.recs), len(applier.recs))
	}
	if got := reg.Counter("pci_repl_batches_rejected_total").Value(); got != rejected {
		t.Fatalf("JSON requests moved the rejected counter %d → %d", rejected, got)
	}
}
