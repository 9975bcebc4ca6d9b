// Package mobility simulates human movement through the synthetic world:
// per-agent daily schedules, trips along the street network, and the
// resulting ground-truth itineraries (place visits and routes).
//
// The itinerary is the oracle that the deployment study (paper Section 4)
// scores discovered places against — it plays the role of the participants'
// diary logging.
package mobility

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/world"
)

// Agent is one simulated participant.
type Agent struct {
	ID     string
	Home   *world.Venue
	Work   *world.Venue
	Haunts []*world.Venue // venues the agent frequents besides home and work

	// SpeedMPS is travel speed between venues (auto-rickshaw pace).
	SpeedMPS float64
	// BluetoothOn mirrors the fraction of users with discoverable Bluetooth.
	BluetoothOn bool
}

// Visit is a ground-truth stay at a venue.
type Visit struct {
	VenueID string
	Arrive  time.Time
	Depart  time.Time
}

// Duration returns the stay length.
func (v Visit) Duration() time.Duration { return v.Depart.Sub(v.Arrive) }

// Trip is a ground-truth journey between two venues.
type Trip struct {
	FromVenueID string
	ToVenueID   string
	Start       time.Time
	End         time.Time
	Path        geo.Polyline
}

// Duration returns the travel time.
func (t Trip) Duration() time.Duration { return t.End.Sub(t.Start) }

// segment is one entry of the agent's continuous timeline.
type segment struct {
	start, end time.Time
	venue      *world.Venue // non-nil => dwelling
	path       geo.Polyline // non-nil => moving
	pathLen    float64

	// jitter[k] is the dwell position in jitter bucket bucket0+k, for every
	// bucket [start, end) touches; filled once by BuildItinerary and only
	// read after, so PositionAt stays safe for concurrent callers.
	bucket0 int64
	jitter  []geo.LatLng
}

// Itinerary is an agent's complete ground-truth movement record over the
// simulated period.
type Itinerary struct {
	AgentID string
	Start   time.Time
	End     time.Time
	Visits  []Visit
	Trips   []Trip

	segments []segment
}

// PositionAt returns the agent's location at time t. Inside a dwell the agent
// wanders deterministically within the venue footprint (so GPS fixes and
// WiFi scans vary realistically); during a trip the position advances along
// the path at constant speed. Times outside the itinerary clamp to its ends.
func (it *Itinerary) PositionAt(t time.Time) geo.LatLng {
	seg := it.segmentAt(t)
	if seg == nil {
		return geo.LatLng{}
	}
	if seg.venue != nil {
		b := jitterBucket(t)
		if k := b - seg.bucket0; k >= 0 && k < int64(len(seg.jitter)) {
			return seg.jitter[k]
		}
		return dwellJitter(seg.venue, it.AgentID, b)
	}
	total := seg.end.Sub(seg.start)
	if total <= 0 {
		return seg.path[0]
	}
	frac := float64(t.Sub(seg.start)) / float64(total)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return seg.path.PointAt(frac * seg.pathLen)
}

// Moving reports whether the agent is in transit at time t. This is what the
// simulated accelerometer observes.
func (it *Itinerary) Moving(t time.Time) bool {
	seg := it.segmentAt(t)
	return seg != nil && seg.path != nil
}

// VenueAt returns the venue the agent is dwelling at during t, or nil while
// in transit.
func (it *Itinerary) VenueAt(t time.Time) *world.Venue {
	seg := it.segmentAt(t)
	if seg == nil {
		return nil
	}
	return seg.venue
}

func (it *Itinerary) segmentAt(t time.Time) *segment {
	n := len(it.segments)
	if n == 0 {
		return nil
	}
	if t.Before(it.segments[0].start) {
		return &it.segments[0]
	}
	if !t.Before(it.segments[n-1].end) {
		return &it.segments[n-1]
	}
	i := sort.Search(n, func(i int) bool { return it.segments[i].end.After(t) })
	if i == n {
		i = n - 1
	}
	return &it.segments[i]
}

// SignificantVisits returns visits of at least minStay, the paper's
// definition of a place visit (≥10 minutes per [19]).
func (it *Itinerary) SignificantVisits(minStay time.Duration) []Visit {
	var out []Visit
	for _, v := range it.Visits {
		if v.Duration() >= minStay {
			out = append(out, v)
		}
	}
	return out
}

// VisitedVenueIDs returns the distinct venues with at least one significant
// visit, in first-visit order.
func (it *Itinerary) VisitedVenueIDs(minStay time.Duration) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range it.SignificantVisits(minStay) {
		if !seen[v.VenueID] {
			seen[v.VenueID] = true
			out = append(out, v.VenueID)
		}
	}
	return out
}

// fillJitter tabulates the dwell segments' positions, one dwellJitter per
// bucket each segment touches, so sampling a dwell every minute seeds one
// generator per five minutes instead of one per sample.
func (it *Itinerary) fillJitter() {
	for i := range it.segments {
		seg := &it.segments[i]
		if seg.venue == nil {
			continue
		}
		seg.bucket0 = jitterBucket(seg.start)
		last := jitterBucket(seg.end.Add(-time.Nanosecond))
		seg.jitter = make([]geo.LatLng, 0, last-seg.bucket0+1)
		for b := seg.bucket0; b <= last; b++ {
			seg.jitter = append(seg.jitter, dwellJitter(seg.venue, it.AgentID, b))
		}
	}
}

// jitterBucket numbers the ~5-minute period of t in which a dwelling agent
// holds one position.
func jitterBucket(t time.Time) int64 { return t.Unix() / 300 }

// dwellJitter returns a deterministic pseudo-random position inside the venue
// footprint that changes once per jitter bucket as the agent moves around the
// building. Each (venue, agent, bucket) seeds its own generator and draws
// exactly twice from it.
func dwellJitter(v *world.Venue, agentID string, bucket int64) geo.LatLng {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%s|%s|%d", v.ID, agentID, bucket)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	// Stay within 60% of the footprint radius so the agent is unambiguously
	// "at" the venue.
	dist := r.Float64() * v.RadiusMeters * 0.6
	return geo.Offset(v.Center, r.Float64()*360, dist)
}
