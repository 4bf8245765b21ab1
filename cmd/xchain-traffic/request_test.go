package main

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// argv renders q as xchain-traffic arguments: every field that differs from
// its default, under the flag bound to it and as that flag prints it.
func argv(t testing.TB, q traffic.Request) []string {
	fs, bound, _, _ := parse(nil, io.Discard)
	def := reflect.ValueOf(traffic.DefaultRequest())
	*bound = q
	v := reflect.ValueOf(q)
	var args []string
	for i := range v.NumField() {
		if reflect.DeepEqual(v.Field(i).Interface(), def.Field(i).Interface()) {
			continue
		}
		name := flagFor(fs, bound, v.Type().Field(i).Tag.Get("json"))
		if name == "" {
			t.Fatalf("no flag is bound to Request.%s", v.Type().Field(i).Name)
		}
		args = append(args, "-"+name+"="+fs.Lookup(name).Value.String())
	}
	return args
}

// requestValues are the JSON values TestArgvAndBodyAgree draws a key from
// when it does not keep the default: boundaries, valid values and invalid
// ones. Durations are whole nanoseconds, which both front ends can spell.
var requestValues = map[string][]string{
	"escrows":           {"0", "-1", "1", "2", "3", "64", "65"},
	"seed":              {"0", "-1", "7", "9223372036854775807", "-9223372036854775808"},
	"payments":          {"0", "-1", "1", "40", "9223372036854775807"},
	"arrival":           {`""`, `"uniform"`, `"burst"`, `"brust"`, `"Poisson"`},
	"rate":              {"0", "-1", "1e-300", "0.001", "0.0001", "1000000000", "1000000001", "2.5"},
	"burst_size":        {"0", "-1", "1", "7"},
	"burst_gap_ms":      {"0", "-1", "1.001", "0.000001", "3600000000", "3600000001", "12345.678901"},
	"amount":            {"0", "-1", "1", "1000000000", "1000000001"},
	"amount_dist":       {`""`, `"uniform"`, `"exponential"`, `"gaussian"`},
	"spread":            {"-1", "5", "1000000001"},
	"commission":        {"0", "-1", "-60", "1000000000", "1000000001"},
	"mix":               {`""`, `"htlc"`, `"timelock=0.5,htlc=0.5"`, `"timelock=-1"`, `"timelock=0"`, `"nope=1"`, `"timelock=abc"`, `"weaklive=1,weaklive-committee=1"`},
	"subpaths":          {"true"},
	"hotspot":           {"-1", "1", "7", "8"},
	"hotspot_frac":      {"0.5", "1", "1.5", "-0.1"},
	"liquidity":         {"-1", "450", "1000000000000", "1000000000001"},
	"queue_patience_ms": {"-1", "1.001", "8000", "3600000000", "3600000001"},
	"max_queue":         {"-1", "5"},
	"faults":            {`"c1=silent"`, `"c1=sillent"`, `"c99=silent"`, `"notary0=equivocate"`, `"c1"`},
	"fault_fraction":    {"0.1", "1", "1.5", "-0.5"},
	"fault_behaviours":  {`["silent"]`, `["silent","crash"]`, `["bogus"]`, `["silent",""]`},
	"fault_from_ms":     {"-1", "1.001", "200", "3600000001"},
	"fault_stagger_ms":  {"-1", "1.001", "500"},
	"fault_outage_ms":   {"-1", "1.001", "1000", "3600000001"},
	"manager_outage_ms": {"-1", "1.001", "300"},
	"stream":            {"true"},
	"workers":           {"-1", "1", "4"},
	"crypto":            {`"hmac"`, `"ed25519"`, `"rsa"`},
}

// TestArgvAndBodyAgree generates requests with every key at its default, a
// boundary, a valid or an invalid value, renders each as xchain-traffic
// arguments and as a POST /runs body, and requires both to parse to the same
// Request — so Build accepts or refuses both. A refusal names the key in the
// error xchain-serve answers, and the CLI exits 2 naming the flag bound to
// it, before anything runs.
func TestArgvAndBodyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs, bound, _, _ := parse(nil, io.Discard)
	fields := reflect.TypeOf(traffic.Request{})
	accepted := 0
	const n = 1200
	for range n {
		body := map[string]json.RawMessage{}
		for i := range fields.NumField() {
			key := fields.Field(i).Tag.Get("json")
			if values := requestValues[key]; len(values) == 0 {
				t.Fatalf("no values for key %q", key)
			} else if rng.Intn(8) == 0 {
				body[key] = json.RawMessage(values[rng.Intn(len(values))])
			}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		q, err := traffic.DecodeRequest(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		args := argv(t, q)
		_, cli, _, err := parse(args, io.Discard)
		if err != nil || !reflect.DeepEqual(*cli, q) {
			t.Fatalf("%v parses to %+v (%v), the body %s to %+v", args, *cli, err, raw, q)
		}

		_, _, _, err = q.Build()
		var re *traffic.RequestError
		if err == nil {
			accepted++
			continue
		}
		if !errors.As(err, &re) || !strings.HasPrefix(err.Error(), re.Key+": ") {
			t.Fatalf("%s refused without naming its key: %v", raw, err)
		}
		var out, errOut strings.Builder
		flag := "-" + flagFor(fs, bound, re.Key) + ": "
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), flag) {
			t.Fatalf("%v: exit %d, stderr %q, want 2 naming %s", args, code, errOut.String(), flag)
		}
	}
	if accepted < n/10 || accepted > n-n/10 {
		t.Errorf("%d of %d requests accepted: the values no longer exercise both answers", accepted, n)
	}
}

// TestSummaryIsServes runs the requests of testdata/request-summaries.json,
// each a POST /runs body beside the summary xchain-serve answers for it (its
// TestServeSummaryIsTheCLIs reads the same file), as arguments: the CLI
// prints that summary byte for byte.
func TestSummaryIsServes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "request-summaries.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Body    json.RawMessage
		Summary string
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) != 3 {
		t.Fatalf("%d requests in the file (%v), want 3", len(cases), err)
	}
	for _, c := range cases {
		q, err := traffic.DecodeRequest(strings.NewReader(string(c.Body)))
		if err != nil {
			t.Fatal(err)
		}
		args := argv(t, q)
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 || out.String() != c.Summary {
			t.Errorf("%v: exit %d, stderr %s\n%s-- want --\n%s", args, code, errOut.String(), out.String(), c.Summary)
		}
	}
}
