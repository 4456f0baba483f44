package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The A/A check: the same code measured twice must agree with itself
// before its numbers can be compared with another commit's. Every workload
// runs n times in each of two sets, interleaved A B B A A B … so that drift
// of the host falls on both, each run a process of its own like the
// driver's, run i of either set with seed base+i. Per workload and metric
// it reports both sets' medians and quartiles, |Δ| of the medians over
// their mean, and each set's spread (interquartile distance over median,
// quartiles as Python's statistics.quantiles(values, n=4) gives them), and
// fails if a difference or a spread exceeds the metric's bound in
// BENCHMARK.json. setup_s is held to its bound on the medians only: the
// driver's acceptance rule exempts its spread too, because a run sets up
// only two or three times.

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the cut points of statistics.quantiles(values, n=4)
// (the default "exclusive" method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func runAA(n int, seed int64) int {
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# A/A check: %d runs per set, seeds %d–%d\n\n", n, seed, seed+int64(n)-1)
	fmt.Println("Two interleaved sets of runs of the same binary. `Δ` is the distance between the set medians over their mean; `spread` is the interquartile distance over the median; both must stay within `bound`, except the spread of `setup_s`, which the driver's rule exempts as well.")
	bad := 0
	for _, w := range decl.Workloads {
		// sets[s][metric] collects the values of set s.
		sets := [2]map[string][]float64{{}, {}}
		next := [2]int{}
		for i := 0; i < 2*n; i++ {
			s := (i + 1) / 2 % 2 // A B B A A B B A …
			res, err := runChild(self, w.Name, seed+int64(next[s]))
			next[s]++
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			for name, m := range res.Metrics {
				sets[s][name] = append(sets[s][name], m.Value)
			}
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Println("| metric | unit | median A | median B | Δ | spread A | spread B | bound | quartiles A | quartiles B | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
		for _, m := range decl.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) < 2 || len(b) < 2 {
				fmt.Printf("| %s | %s | | | | | | | | | needs 2 runs per set |\n", m.Name, m.Unit)
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			delta := math.Abs(a2-b2) / ((a2 + b2) / 2)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case delta > m.Bound:
				verdict = "FAIL: medians differ"
				bad++
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL: spread"
				bad++
			case delta > m.Bound/2 || max(sa, sb) > m.Bound/3:
				verdict = "ok (wide)"
			}
			fmt.Printf("| %s | %s | %s | %s | %.1f %% | %.1f %% | %.1f %% | %.0f %% | %s – %s | %s – %s | %s |\n",
				m.Name, m.Unit, num(a2), num(b2), 100*delta, 100*sa, 100*sb, 100*m.Bound, num(a1), num(a3), num(b1), num(b3), verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d pairs outside their bound.\n", bad)
		return 1
	}
	fmt.Println("\nEvery pair within its bound.")
	return 0
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runChild runs one workload in a process of its own and parses the last
// line it printed.
func runChild(self, workload string, seed int64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(runSeconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("seed %d: last line of output: %w", seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("seed %d: run reported incorrect outputs", seed)
	}
	return &res, nil
}
