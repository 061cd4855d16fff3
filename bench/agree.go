package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the agreement mode reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the rule the
// acceptance check is stated in.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runAgree runs two interleaved sets (A B A B …) of n untraced runs of every
// workload, each run a fresh process on its own seed, and checks what the
// benchmark's acceptance is checked on: within each set, every end-to-end
// metric's interquartile range stays within its bound as a share of the
// median (set-up time excepted), and set B's median is not worse than set A's
// by more than the bound. It returns the process exit code.
func runAgree(n int, o options) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: --agree needs at least 2 runs per set")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: --agree runs from the repository root:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	breaches := 0
	for _, w := range bf.Workloads {
		if o.workload != "" && o.workload != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := i % 2
			seed := o.seed + uint64(i/2) + uint64(set*n)
			res, err := runChild(exe, w.Name, seed, bf.RunSeconds)
			if err != nil {
				fmt.Printf("%s set %c seed %d: %v\n", w.Name, 'A'+set, seed, err)
				breaches++
				continue
			}
			if !res.Correct || res.Failed != 0 {
				fmt.Printf("%s set %c seed %d: %d of %d failed\n", w.Name, 'A'+set, seed, res.Failed, res.Attempted)
				breaches++
			}
			for name, v := range res.Metrics {
				sets[set][name] = append(sets[set][name], v.Value)
			}
		}
		fmt.Printf("\n%s: %d + %d runs\n", w.Name, n, n)
		fmt.Printf("%-28s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict = " SPREAD"
				breaches++
			}
			if worse > m.Bound {
				verdict += " DRIFT"
				breaches++
			}
			fmt.Printf("%-28s %12.4f %12.4f %8.4f %8.4f %+8.4f %6.2f%s\n",
				m.Name, a2, b2, spreadA, spreadB, worse, m.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("\nall sets agree within their bounds")
	return 0
}

// runChild runs one untraced benchmark run in its own process — peak RSS and
// set-up time are per process — and parses its result line.
func runChild(exe, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
