package events

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckRejectsBadValues(t *testing.T) {
	const bin = time.Hour
	for _, tc := range []struct {
		threshold float64
		window    time.Duration
		ok        bool
	}{
		{10, 7 * 24 * time.Hour, true},
		{0.5, bin, true},
		{0, 7 * 24 * time.Hour, false},            // the aggregator would read 0 as its default
		{-5, 7 * 24 * time.Hour, false},           // every bin would be an event
		{math.NaN(), 7 * 24 * time.Hour, false},   // no magnitude is ≥ NaN
		{math.Inf(1), 7 * 24 * time.Hour, false},  // no magnitude is ≥ +Inf
		{math.Inf(-1), 7 * 24 * time.Hour, false}, // every magnitude is
		{10, 0, false},                            // the aggregator would read 0 as a week
		{10, -time.Hour, false},
		{10, bin - time.Second, false},
		{10, 90 * time.Minute, false}, // would be rounded up to 2h
		{10, 61 * time.Minute, false},
	} {
		err := Config{BinSize: bin, Threshold: tc.threshold, Window: tc.window}.Check()
		if (err == nil) != tc.ok {
			t.Errorf("Check(threshold %v, window %v) = %v, want ok=%v", tc.threshold, tc.window, err, tc.ok)
		}
	}
}

// TestNewAggregatorRefusesBadConfig: a library caller that sets an event
// window or threshold the aggregator cannot honour gets the refusal the
// commands give, not a window silently rounded up to whole bins. Zero
// fields still take their defaults.
func TestNewAggregatorRefusesBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Window: 90 * time.Minute},
		{BinSize: 2 * time.Hour, Window: 3 * time.Hour},
		{Threshold: -1},
		{Threshold: math.NaN()},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "events: event ") {
					t.Errorf("NewAggregator(%+v): panic %q, want a refusal", cfg, msg)
				}
			}()
			NewAggregator(cfg, testTable(t))
		}()
	}
	if got := NewAggregator(Config{}, testTable(t)).Config(); got.Window != 7*24*time.Hour || got.Threshold != 10 {
		t.Errorf("zero Config: window %v, threshold %v; want the defaults", got.Window, got.Threshold)
	}
}
