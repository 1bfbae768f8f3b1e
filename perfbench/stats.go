package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// ms, us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status. It returns 0 where that file does not exist.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
