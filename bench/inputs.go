package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/profile"
	"repro/internal/trace"
)

// labels is the fixed vocabulary LabelPlace ops and profile variants draw from.
var labels = [...]string{"home", "work", "gym", "cafe"}

// template is one synthesized user's payload set. A bounded template set
// serves an unbounded stream of virtual users: virtual user v is template
// v%T under identity load.UserIdentity(v).
type template struct {
	trace []trace.GSMObservation
	// dayEnd[d] is the trace length at the end of day d; the ingest op of
	// day d uploads trace[:dayEnd[d]] and the client ships only the delta.
	dayEnd []int
	// profiles[d][variant]: variant 0 is the synthesized day profile,
	// variant 1 the same day with its first visit relabelled, so
	// read-after-write can tell which of two puts landed last.
	profiles    [][2]*profile.DayProfile
	queryPlaces []string
}

// inputs is everything a run needs that depends only on (workload, seed).
type inputs struct {
	pop       *load.Population
	templates []*template
	// synthMS is the mean wall time of one template's synthesis.
	synthMS float64
}

// synthesize builds the workload's template set in parallel. Templates whose
// trace yields no place under batch GCA are skipped (LabelPlace needs a
// place), so the set is the first T usable population indices — still a pure
// function of the seed.
func synthesize(w workload, seed int64) (*inputs, error) {
	spec := load.DefaultSpec()
	spec.TraceDays = w.days
	spec.ObsIntervalSec = w.obsIntervalSec
	pop := load.NewPopulation(spec, load.Key{Seed: seed})

	in := &inputs{pop: pop}
	var total time.Duration
	for next := 0; len(in.templates) < w.templates; {
		batch := w.templates - len(in.templates)
		out := make([]*template, batch)
		durs := make([]time.Duration, batch)
		errs := make([]error, batch)
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i := 0; i < batch; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i, idx int) {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				out[i], errs[i] = buildTemplate(pop, idx, w)
				durs[i] = time.Since(t0)
			}(i, next+i)
		}
		wg.Wait()
		next += batch
		for i, t := range out {
			if errs[i] != nil {
				return nil, errs[i]
			}
			total += durs[i]
			if t != nil {
				in.templates = append(in.templates, t)
			}
		}
		if next > 4*w.templates+16 {
			return nil, fmt.Errorf("synthesize: only %d usable templates in the first %d users", len(in.templates), next)
		}
	}
	in.synthMS = float64(total.Microseconds()) / 1000 / float64(w.templates)
	return in, nil
}

func buildTemplate(pop *load.Population, idx int, w workload) (*template, error) {
	u, err := pop.User(idx)
	if err != nil {
		return nil, err
	}
	if len(gsm.Discover(u.Trace, gsm.DefaultParams()).Places) == 0 || len(u.QueryPlaces) == 0 {
		return nil, nil
	}
	t := &template{trace: u.Trace, queryPlaces: u.QueryPlaces}
	perDay := 86400 / w.obsIntervalSec
	for d := 0; d < w.days; d++ {
		t.dayEnd = append(t.dayEnd, min((d+1)*perDay, len(u.Trace)))
	}
	for d := 0; d < w.days; d++ {
		// Days without a significant visit have no profile; reuse the last
		// one so every virtual user issues the same op sequence.
		p := u.Profiles[min(d, len(u.Profiles)-1)]
		alt := *p
		alt.Places = append([]profile.PlaceVisit(nil), p.Places...)
		alt.Places[0].Label = labels[(idx+d)%len(labels)] + "-alt"
		t.profiles = append(t.profiles, [2]*profile.DayProfile{p, &alt})
	}
	return t, nil
}

// op is one scheduled call. due is the offset from the start of the timed
// phase at which an open-loop op is due (0 in closed-loop schedules).
type op struct {
	vu   int32
	kind opKind
	day  uint8
	arg  uint16
	due  int64
}

// schedule is the complete, pre-generated op list of a run: one ordered list
// per caller. All ops of one virtual user are on one caller, so session
// order needs no cross-goroutine turnstile.
type schedule struct {
	perCaller [callers][]op
	// vusers is how many virtual users the schedule addresses.
	vusers int
	// offered is the scheduled rate of an open-loop schedule (ops / last due).
	offered float64
}

// hash is the provenance fingerprint: FNV-64a over every caller's ordered op
// list (virtual user, kind, day, argument, due time).
func (s *schedule) hash() uint64 {
	h := fnv.New64a()
	var buf [8 + 1 + 1 + 2 + 8]byte
	for c := range s.perCaller {
		for _, o := range s.perCaller[c] {
			binary.LittleEndian.PutUint64(buf[0:], uint64(o.vu))
			buf[8], buf[9] = byte(o.kind), o.day
			binary.LittleEndian.PutUint16(buf[10:], o.arg)
			binary.LittleEndian.PutUint64(buf[12:], uint64(o.due))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// closedOpsPerSecond sizes a closed-loop caller's op list: comfortably more
// than one caller can issue per second on any host this runs on. A caller
// that still exhausts its list wraps around.
const closedOpsPerSecond = 30000

// buildClosed draws each caller's op list from the mix. Caller c owns the
// users with index ≡ c (mod callers). The RNG stream is addressed by the mix
// family, not the workload, which is what makes write-churn and repl-write
// byte-for-byte the same op sequence.
func buildClosed(w workload, seed int64, seconds int) *schedule {
	key := load.Key{Seed: seed}
	s := &schedule{vusers: w.templates}
	cum := make([]float64, len(w.mix))
	sum := 0.0
	for i, m := range w.mix {
		sum += m.weight
		cum[i] = sum
	}
	for c := 0; c < callers; c++ {
		r := key.Stream("bench-ops", w.mixFamily, strconv.Itoa(c))
		own := (w.templates - c + callers - 1) / callers
		ops := make([]op, seconds*closedOpsPerSecond)
		for i := range ops {
			x := r.Float64() * sum
			k := 0
			for k < len(cum)-1 && x >= cum[k] {
				k++
			}
			ops[i] = op{
				vu:   int32(c + callers*r.Intn(own)),
				kind: w.mix[k].kind,
				day:  uint8(r.Intn(w.days)),
				arg:  uint16(r.Intn(1 << 16)),
			}
		}
		s.perCaller[c] = ops
	}
	return s
}

// buildOpen lays out the pms-day sessions. Virtual user v runs on caller
// v%callers; its ingest path alternates between the buffered delta upload
// (DiscoverPlaces) and the streaming one (StreamObservations, with an SSE
// subscription attached as that user). Each caller's arrivals are a Poisson
// process at rate/callers, and a session's ops take consecutive arrivals, so
// the merged stream offers rate req/s. Sessions that start inside the window
// run to completion.
func buildOpen(w workload, seed int64, seconds int) *schedule {
	key := load.Key{Seed: seed}
	s := &schedule{}
	horizon := int64(seconds) * int64(time.Second)
	mean := float64(callers) / w.rate * float64(time.Second)
	var ops, lastDue int64
	for c := 0; c < callers; c++ {
		r := key.Stream("bench-arrivals", strconv.Itoa(c))
		var due int64
		var list []op
		emit := func(vu int, k opKind, day, arg int) {
			due += max(int64(r.ExpFloat64()*mean), 1)
			list = append(list, op{vu: int32(vu), kind: k, day: uint8(day), arg: uint16(arg), due: due})
		}
		for vu := c; due < horizon; vu += callers {
			stream := (vu/callers)%2 == 1
			emit(vu, opRegister, 0, 0)
			if stream {
				emit(vu, opSubscribe, 0, 0)
			}
			for d := 0; d < w.days; d++ {
				if stream {
					emit(vu, opStream, d, 0)
				} else {
					emit(vu, opDiscover, d, 0)
				}
				emit(vu, opSyncProfile, d, 0)
				emit(vu, opPlaces, d, 0)
				emit(vu, opPredictArrival, d, vu+d)
				if (vu+d)%2 == 0 {
					emit(vu, opDwellStats, d, vu+d+1)
				} else {
					emit(vu, opVisitFrequency, d, vu+d+1)
				}
				emit(vu, opProfileRange, d, 0)
				emit(vu, opPopular, d, 0)
			}
			s.vusers = max(s.vusers, vu+1)
		}
		s.perCaller[c] = list
		ops += int64(len(list))
		lastDue = max(lastDue, due)
	}
	s.offered = float64(ops) / (float64(lastDue) / float64(time.Second))
	return s
}

func buildSchedule(w workload, seed int64, seconds int) *schedule {
	if w.open {
		return buildOpen(w, seed, seconds)
	}
	return buildClosed(w, seed, seconds)
}
