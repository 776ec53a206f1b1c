package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-peers", "http://x"}, 2},
		{[]string{"-canary", "rw500"}, 2},
		{[]string{"-workers", "many"}, 2},
	} {
		var stderr bytes.Buffer
		cfg, code := parseFlags(tc.args, &stderr)
		if cfg != nil || code != tc.code {
			t.Errorf("%q: got (%v, exit %d), want exit %d", tc.args, cfg, code, tc.code)
		}
		if !strings.Contains(stderr.String(), "Usage of pearld") {
			t.Errorf("%q: stderr lacks the usage text:\n%s", tc.args, stderr.String())
		}
	}

	var stderr bytes.Buffer
	cfg, _ := parseFlags([]string{"-workers", "3", "-queue", "7", "-cache-dir", "d", "-model-dir", "m"}, &stderr)
	if cfg == nil {
		t.Fatalf("valid flags rejected:\n%s", stderr.String())
	}
	o := cfg.opts
	if o.Workers != 3 || o.QueueDepth != 7 || o.CacheDir != "d" || o.ModelDir != "m" {
		t.Errorf("options = %+v, want Workers 3, QueueDepth 7, CacheDir d, ModelDir m", o)
	}
	if cfg.addr != ":8080" || o.CacheCapacity != 1024 || o.DefaultTimeout != 5*time.Minute || cfg.drainGrace != 2*time.Minute {
		t.Errorf("defaults: addr %q, cache %d, timeout %v, drain grace %v", cfg.addr, o.CacheCapacity, o.DefaultTimeout, cfg.drainGrace)
	}
	if stderr.Len() != 0 {
		t.Errorf("valid flags wrote to stderr: %s", stderr.String())
	}
}
