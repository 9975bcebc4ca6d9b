package trace

import "time"

// CollectGSM samples the serving cell every interval over [from, to) and
// returns the observations in time order.
func (s *Sensors) CollectGSM(from, to time.Time, interval time.Duration) []GSMObservation {
	var out []GSMObservation
	for t := from; t.Before(to); t = t.Add(interval) {
		out = append(out, s.SampleGSM(t))
	}
	return out
}

// CollectWiFi performs scans every interval over [from, to).
func (s *Sensors) CollectWiFi(from, to time.Time, interval time.Duration) []WiFiScan {
	var out []WiFiScan
	for t := from; t.Before(to); t = t.Add(interval) {
		out = append(out, s.SampleWiFi(t))
	}
	return out
}

// CollectGPS samples fixes every interval over [from, to), keeping only
// valid fixes.
func (s *Sensors) CollectGPS(from, to time.Time, interval time.Duration) []GPSFix {
	var out []GPSFix
	for t := from; t.Before(to); t = t.Add(interval) {
		if fix := s.SampleGPS(t); fix.Valid {
			out = append(out, fix)
		}
	}
	return out
}
