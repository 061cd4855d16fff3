package sim

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lasthop/internal/core"
	"lasthop/internal/dist"
)

func TestScenarioSaveLoadRoundTrip(t *testing.T) {
	cfg := quickCfg(func(c *Config) {
		c.Horizon = 20 * dist.Day
		c.Outage.Fraction = 0.5
		c.Expiration = dist.ExpirationConfig{Kind: dist.ExpExpiration, Mean: 6 * time.Hour}
		c.Churn = ChurnConfig{Portion: 0.2, RetractTo: 0}
	})
	orig := mustScenario(t, cfg)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Arrivals) != len(orig.Arrivals) ||
		len(loaded.Reads) != len(orig.Reads) ||
		len(loaded.Outages) != len(orig.Outages) {
		t.Fatal("round trip changed scenario shape")
	}
	// The loaded scenario must replay to identical results.
	r1, err := Run(orig, core.BufferConfig(TopicName, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(loaded, core.BufferConfig(TopicName, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Forwarded != r2.Forwarded || r1.ReadCount != r2.ReadCount || r1.WastePct != r2.WastePct {
		t.Errorf("replay diverged: %+v vs %+v", r1, r2)
	}
}

func TestScenarioSaveLoadFile(t *testing.T) {
	cfg := quickCfg(func(c *Config) { c.Horizon = 5 * dist.Day })
	orig := mustScenario(t, cfg)
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Arrivals) != len(orig.Arrivals) {
		t.Error("file round trip changed arrivals")
	}
	if _, err := LoadScenarioFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	if _, err := LoadScenario(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadScenario(strings.NewReader(`{"version":99,"scenario":{}}`)); err == nil {
		t.Error("unknown version accepted")
	}
	// Structurally invalid: arrival beyond the horizon.
	bad := `{"version":1,"scenario":{"Cfg":{"Horizon":1000,"EventsPerDay":1,"ReadsPerDay":1},` +
		`"Arrivals":[{"At":5000,"Rank":1}],"Reads":null,"Outages":null}}`
	if _, err := LoadScenario(strings.NewReader(bad)); err == nil {
		t.Error("out-of-horizon arrival accepted")
	}
	// Out-of-order reads.
	bad2 := `{"version":1,"scenario":{"Cfg":{"Horizon":100000,"EventsPerDay":1,"ReadsPerDay":1},` +
		`"Arrivals":null,"Reads":[500,100],"Outages":null}}`
	if _, err := LoadScenario(strings.NewReader(bad2)); err == nil {
		t.Error("out-of-order reads accepted")
	}
	// A rank outside [msg.MinRank, msg.MaxRank].
	bad3 := `{"version":1,"scenario":{"Cfg":{"Horizon":100000,"EventsPerDay":1,"ReadsPerDay":1},` +
		`"Arrivals":[{"At":5,"Rank":1001}],"Reads":null,"Outages":null}}`
	if _, err := LoadScenario(strings.NewReader(bad3)); err == nil {
		t.Error("out-of-range rank accepted")
	}
}

// TestRunRejectsMalformedScenario: every run validates its scenario, since
// the replay trusts the streams' order and hands arrivals straight to the
// proxy, and the error names the index. A retraction no later than its own
// arrival would otherwise be dropped as a rank update for an unknown
// notification, and an out-of-range rank would reach Figure 7 unchecked.
func TestRunRejectsMalformedScenario(t *testing.T) {
	valid := func() Scenario {
		return Scenario{
			Cfg:      Config{Horizon: dist.Day, EventsPerDay: 1, ReadsPerDay: 1, Max: 2},
			Arrivals: []Arrival{{At: time.Hour, Rank: 3}, {At: 2 * time.Hour, Rank: 2, RetractAt: 3 * time.Hour}},
			Reads:    []time.Duration{time.Hour, 5 * time.Hour},
			Outages:  []dist.Interval{{Start: time.Hour, End: 2 * time.Hour}, {Start: 4 * time.Hour, End: 6 * time.Hour}},
		}
	}
	cases := []struct {
		name, want string
		mutate     func(*Scenario)
	}{
		{"arrival out of order", "arrival 1", func(s *Scenario) { s.Arrivals[1].At = 30 * time.Minute }},
		{"read out of order", "read 1", func(s *Scenario) { s.Reads[1] = 30 * time.Minute }},
		{"outage out of order", "outage 1", func(s *Scenario) { s.Outages[1] = dist.Interval{Start: 0, End: 30 * time.Minute} }},
		{"negative retraction", "arrival 0", func(s *Scenario) { s.Arrivals[0].RetractAt = -time.Minute }},
		{"retraction at its arrival", "arrival 1", func(s *Scenario) { s.Arrivals[1].RetractAt = 2 * time.Hour }},
		{"retraction before its arrival", "arrival 1", func(s *Scenario) { s.Arrivals[1].RetractAt = time.Minute }},
		{"rank above the maximum", "arrival 0", func(s *Scenario) { s.Arrivals[0].Rank = 1001 }},
		{"NaN rank", "arrival 1", func(s *Scenario) { s.Arrivals[1].Rank = math.NaN() }},
		{"negative retracted rank", "arrival 1", func(s *Scenario) { s.Arrivals[1].RetractTo = -1 }},
	}
	if _, err := Run(valid(), core.OnlineConfig(TopicName)); err != nil {
		t.Fatalf("valid scenario: %v", err)
	}
	for _, c := range cases {
		sc := valid()
		c.mutate(&sc)
		_, err := Run(sc, core.OnlineConfig(TopicName))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
