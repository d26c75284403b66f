package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchDef is the part of BENCHMARK.json steady mode reads: each
// metric's bound (the share of the median it may worsen by).
type benchDef struct {
	EndToEnd []struct {
		Name  string   `json:"name"`
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyReport runs the workload k times, each in a fresh process of this
// binary with its own seed, and prints every metric's median, quartiles
// and relative spread (interquartile distance over median). A spread
// above the metric's bound is flagged. The last line is a JSON summary.
func steadyReport(workload string, seed int64, seconds, trace, k int) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var def benchDef
		if err := json.Unmarshal(data, &def); err != nil {
			return fmt.Errorf("parsing BENCHMARK.json: %w", err)
		}
		for _, m := range def.EndToEnd {
			if m.Bound != nil {
				bounds[m.Name] = *m.Bound
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	allCorrect := true
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		allCorrect = allCorrect && res.Correct && res.Failed == 0
		fmt.Printf("# run seed=%d correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)

	type row struct {
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Bound  *float64  `json:"bound,omitempty"`
		Flag   bool      `json:"over_bound"`
		Unit   string    `json:"unit"`
		Values []float64 `json:"values"`
	}
	summary := map[string]row{}
	fmt.Printf("# %-28s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, n := range names {
		q1, _, q3 := quartiles(values[n])
		r := row{Median: median(values[n]), Q1: q1, Q3: q3, Spread: relSpread(values[n]), Unit: units[n], Values: values[n]}
		boundText := "-"
		if b, ok := bounds[n]; ok {
			r.Bound = &b
			r.Flag = r.Spread > b
			boundText = strconv.FormatFloat(b, 'g', -1, 64)
		}
		mark := ""
		if r.Flag {
			mark = "  OVER BOUND"
		}
		fmt.Printf("# %-28s %12.6g %12.6g %12.6g %8.4f %7s%s\n", n, r.Median, r.Q1, r.Q3, r.Spread, boundText, mark)
		fmt.Printf("#   %.6g\n", r.Values)
		summary[n] = r
	}
	line, err := json.Marshal(map[string]any{"workload": workload, "runs": k, "all_correct": allCorrect, "metrics": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// lastResult parses the result object on the last non-empty line of a
// run's standard output.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
