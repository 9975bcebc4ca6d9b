package load

// Spec shapes the synthesized population: the shared city and how much
// trace each user carries. A (seed, spec) pair fully determines every user's
// payloads.
type Spec struct {
	// WorldSeed generates the shared city (towers, public venues).
	WorldSeed int64
	// ExtentMeters is the city's half-width.
	ExtentMeters float64
	// HauntsPerUser is how many public venues each user frequents.
	HauntsPerUser int
	// TraceDays is how many days of itinerary each user's trace and
	// profiles cover.
	TraceDays int
	// ObsIntervalSec is the GSM sampling period within those days.
	ObsIntervalSec int
}

// DefaultSpec returns the population shape bench/ starts from: the city
// cmd/pmware-cloud builds its cell database from by default, one day of
// trace sampled every five minutes.
func DefaultSpec() *Spec {
	return &Spec{
		WorldSeed:      2014,
		ExtentMeters:   2600,
		HauntsPerUser:  7,
		TraceDays:      1,
		ObsIntervalSec: 300,
	}
}
