package main

import (
	"encoding/json"
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// jsonKeys marshals v with every field set to a non-zero value (so no
// omitempty hides one) and returns the object's keys, sorted.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s: a %s this test does not know how to fill", rv.Type().Field(i).Name, f.Kind())
		}
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestJSONSummaryKeys pins what `sipload -json` prints: EXPERIMENTS.md's
// tables, the verify skill and experiment scripts read these names.
func TestJSONSummaryKeys(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{&summary{}, "attempts blocked elapsed_s established failed hold_s jitter_avg_ms jitter_max_ms " +
			"late_p99_ms loss_ratio media media_legs mos_avg mos_min pb pps rate retries rtcp_received " +
			"rtcp_sent rtp_received rtp_sent rtt_avg_ms rtt_max_ms seed throttled window_s"},
		{&registerSummary{}, "avalanche drain_s endpoints expires_s failed reg_per_sec registered " +
			"registers retries seed stale_retries window_s"},
	} {
		if got := strings.Join(jsonKeys(t, tc.v), " "); got != tc.want {
			t.Errorf("%T keys:\n got %s\nwant %s", tc.v, got, tc.want)
		}
	}
}

// TestFlagNames pins the command line: the generator moved under it,
// the nineteen flags did not.
func TestFlagNames(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := "avalanche callee-addr caller-addr endpoints expires hold json media media-port proxy " +
		"rate register register-ramp retries retry-base rtcp seed target window"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("flags:\n got %s\nwant %s", s, want)
	}
}
