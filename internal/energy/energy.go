// Package energy models handset battery consumption for the location
// interfaces PMWare schedules. It reproduces the analysis behind Figure 1 of
// the paper: battery duration under continuous sensing of each interface at
// different sampling frequencies, on an HTC A310E-class device with a
// 1230 mAh battery.
//
// The model is a per-sample energy cost plus an idle floor; constants are
// calibrated so the headline ratio holds — sampling GSM every minute yields
// roughly 11x the battery duration of sampling GPS every minute.
package energy

import (
	"fmt"
	"time"
)

// Interface identifies a sensed radio/sensor.
type Interface int

// The location interfaces discussed in the paper.
const (
	GPS Interface = iota + 1
	WiFi
	GSM
	Accelerometer
	Bluetooth
)

var interfaceNames = map[Interface]string{
	GPS:           "GPS",
	WiFi:          "WiFi",
	GSM:           "GSM",
	Accelerometer: "Accelerometer",
	Bluetooth:     "Bluetooth",
}

// String returns the interface name.
func (i Interface) String() string {
	if s, ok := interfaceNames[i]; ok {
		return s
	}
	return fmt.Sprintf("Interface(%d)", int(i))
}

// AllInterfaces lists every interface in display order.
func AllInterfaces() []Interface {
	return []Interface{GPS, WiFi, GSM, Accelerometer, Bluetooth}
}

// Model holds the device energy parameters.
type Model struct {
	// BatteryMAh and VoltageV size the battery (1230 mAh @ 3.7 V for the
	// HTC A310E Explorer in Figure 1).
	BatteryMAh float64
	VoltageV   float64
	// IdleFloorW is the baseline draw of the otherwise-idle phone.
	IdleFloorW float64
	// SampleCostJ is the marginal energy of one sample per interface:
	// a GPS fix, a WiFi scan, a GSM serving-cell read, an accelerometer
	// window, a Bluetooth inquiry.
	SampleCostJ map[Interface]float64
}

// DefaultModel returns the calibrated HTC A310E model.
func DefaultModel() Model {
	return Model{
		BatteryMAh: 1230,
		VoltageV:   3.7,
		IdleFloorW: 0.006,
		SampleCostJ: map[Interface]float64{
			GPS:           4.2,   // ~12 s receiver-on at ~350 mW per fix
			WiFi:          1.5,   // active scan burst
			GSM:           0.05,  // modem already camped; reading is ~free
			Accelerometer: 0.012, // short sensing window
			Bluetooth:     1.0,   // inquiry scan
		},
	}
}

// BatteryJoules returns the battery capacity in joules.
func (m Model) BatteryJoules() float64 {
	return m.BatteryMAh / 1000 * m.VoltageV * 3600
}

// AveragePowerW returns the mean draw when the interface is sampled
// continuously at the given interval, including the idle floor.
func (m Model) AveragePowerW(i Interface, interval time.Duration) float64 {
	if interval <= 0 {
		interval = time.Second
	}
	return m.IdleFloorW + m.SampleCostJ[i]/interval.Seconds()
}

// BatteryLifeHours returns the projected battery duration under continuous
// sampling of a single interface at the given interval — one point of
// Figure 1.
func (m Model) BatteryLifeHours(i Interface, interval time.Duration) float64 {
	return m.BatteryJoules() / m.AveragePowerW(i, interval) / 3600
}

// Load describes one interface sampled at a fixed interval, for combined
// projections.
type Load struct {
	Interface Interface
	Interval  time.Duration
}

// BatteryLifeHoursCombined projects battery duration under several
// concurrent sampling loads (idle floor counted once).
func (m Model) BatteryLifeHoursCombined(loads []Load) float64 {
	power := m.IdleFloorW
	for _, l := range loads {
		if l.Interval <= 0 {
			continue
		}
		power += m.SampleCostJ[l.Interface] / l.Interval.Seconds()
	}
	return m.BatteryJoules() / power / 3600
}

// Meter accumulates sampling activity during a simulation and projects the
// resulting battery life. PMWare's scheduler charges every sample it
// triggers to a meter, which is what makes the triggered-sensing ablations
// apples-to-apples.
type Meter struct {
	model    Model
	samples  map[Interface]int
	consumed float64 // joules from samples only
}

// NewMeter returns a meter over the given model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model, samples: make(map[Interface]int)}
}

// Charge records n samples of the interface.
func (mt *Meter) Charge(i Interface, n int) {
	if n <= 0 {
		return
	}
	mt.samples[i] += n
	mt.consumed += float64(n) * mt.model.SampleCostJ[i]
}

// Samples returns the number of samples charged for the interface.
func (mt *Meter) Samples(i Interface) int { return mt.samples[i] }

// TotalSamples returns all samples charged across interfaces.
func (mt *Meter) TotalSamples() int {
	total := 0
	for _, n := range mt.samples {
		total += n
	}
	return total
}

// ConsumedJoules returns sampling energy plus idle-floor energy over the
// elapsed simulated duration.
func (mt *Meter) ConsumedJoules(elapsed time.Duration) float64 {
	return mt.consumed + mt.model.IdleFloorW*elapsed.Seconds()
}

// AveragePowerW returns the mean draw over the elapsed duration.
func (mt *Meter) AveragePowerW(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return mt.model.IdleFloorW
	}
	return mt.ConsumedJoules(elapsed) / elapsed.Seconds()
}

// ProjectedLifeHours extrapolates battery duration from the consumption rate
// observed over the elapsed simulated duration.
func (mt *Meter) ProjectedLifeHours(elapsed time.Duration) float64 {
	p := mt.AveragePowerW(elapsed)
	if p <= 0 {
		return 0
	}
	return mt.model.BatteryJoules() / p / 3600
}

// Reset clears all charged samples.
func (mt *Meter) Reset() {
	mt.samples = make(map[Interface]int)
	mt.consumed = 0
}
