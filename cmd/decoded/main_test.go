package main

import (
	"testing"
	"time"
)

// -decode-timeout reaches the server only through the Config that
// buildOnline hands to NewOnline; the rtd server reads its per-window
// deadline from there.
func TestDecodeTimeoutFlagReachesOnlineConfig(t *testing.T) {
	cfg, err := parseArgs([]string{"-decode-timeout", "10ms"})
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Config().DecodeTimeout; got != 10*time.Millisecond {
		t.Fatalf("Online DecodeTimeout = %v, want 10ms", got)
	}
}
