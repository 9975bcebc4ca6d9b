//go:build !linux

package main

// The CPU, peak-RSS and tmpfs probes read Linux interfaces; elsewhere the
// benchmark still runs and reports them as 0.

func cpuMicros() int64 { return 0 }

func peakRSSMB() float64 { return 0 }

func resetPeakRSS() {}

func statfsType(string) int64 { return 0 }
