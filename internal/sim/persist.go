package sim

// Scenario persistence: a materialized scenario can be saved and reloaded,
// pinning the exact randomness of an experiment for bug reports and
// cross-machine reproduction (the generated scenario is already
// deterministic in the seed, but a file survives generator changes).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lasthop/internal/msg"
)

// scenarioFile is the on-disk shape, versioned for forward compatibility.
type scenarioFile struct {
	Version  int      `json:"version"`
	Scenario Scenario `json:"scenario"`
}

const scenarioVersion = 1

// Save writes the scenario as JSON.
func (s Scenario) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(scenarioFile{Version: scenarioVersion, Scenario: s}); err != nil {
		return fmt.Errorf("save scenario: %w", err)
	}
	return nil
}

// SaveFile writes the scenario to a file.
func (s Scenario) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save scenario: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := s.Save(w); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("save scenario: %w", err)
	}
	return f.Close()
}

// LoadScenario reads a scenario saved with Save.
func LoadScenario(r io.Reader) (Scenario, error) {
	var file scenarioFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&file); err != nil {
		return Scenario{}, fmt.Errorf("load scenario: %w", err)
	}
	if file.Version != scenarioVersion {
		return Scenario{}, fmt.Errorf("load scenario: unsupported version %d", file.Version)
	}
	if err := file.Scenario.validateShape(); err != nil {
		return Scenario{}, fmt.Errorf("load scenario: %w", err)
	}
	return file.Scenario, nil
}

// LoadScenarioFile reads a scenario from a file.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("load scenario: %w", err)
	}
	defer f.Close()
	return LoadScenario(bufio.NewReader(f))
}

// validateShape rejects scenarios whose event streams are malformed (out
// of order, outside the horizon, ranked outside [msg.MinRank,
// msg.MaxRank], or retracting a notification no later than its arrival):
// the replay trusts the sort order and hands arrivals to the proxy with no
// admission check of its own, and each error names the offending index.
func (s Scenario) validateShape() error {
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	horizon := s.Cfg.Horizon
	// A broker's other admission checks hold by construction: every
	// arrival gets a distinct ID (arrivalIDs) on the one topic the run
	// sets up.
	for i, a := range s.Arrivals {
		if !validRank(a.Rank) {
			return fmt.Errorf("arrival %d rank %v outside [%v, %v]", i, a.Rank, float64(msg.MinRank), float64(msg.MaxRank))
		}
		if a.At < 0 || a.At >= horizon {
			return fmt.Errorf("arrival %d at %v outside horizon %v", i, a.At, horizon)
		}
		if i > 0 && a.At < s.Arrivals[i-1].At {
			return fmt.Errorf("arrival %d at %v before arrival %d", i, a.At, i-1)
		}
		if a.Lifetime < 0 {
			return fmt.Errorf("arrival %d has negative lifetime", i)
		}
		if a.RetractAt < 0 || a.RetractAt > 0 && a.RetractAt <= a.At {
			return fmt.Errorf("arrival %d retracted at %v, not after its arrival at %v", i, a.RetractAt, a.At)
		}
		if a.RetractAt > 0 && !validRank(a.RetractTo) {
			return fmt.Errorf("arrival %d retracted to rank %v outside [%v, %v]", i, a.RetractTo, float64(msg.MinRank), float64(msg.MaxRank))
		}
	}
	for i, r := range s.Reads {
		if r < 0 || r >= horizon {
			return fmt.Errorf("read %d at %v outside horizon %v", i, r, horizon)
		}
		if i > 0 && r < s.Reads[i-1] {
			return fmt.Errorf("read %d at %v before read %d", i, r, i-1)
		}
	}
	for i, o := range s.Outages {
		if o.End <= o.Start || o.Start < 0 || o.End > horizon {
			return fmt.Errorf("outage %d [%v, %v) invalid", i, o.Start, o.End)
		}
		if i > 0 && o.Start < s.Outages[i-1].End {
			return fmt.Errorf("outage %d starts before outage %d ends", i, i-1)
		}
	}
	return nil
}

// validRank reports whether r lies in [msg.MinRank, msg.MaxRank]; NaN
// does not.
func validRank(r float64) bool { return r >= msg.MinRank && r <= msg.MaxRank }
