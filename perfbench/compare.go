package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// resultSet maps workload → metric → values over runs.
type resultSet map[string]map[string][]float64

// readResults parses a result set: one run per line, "<workload> <JSON>",
// where the JSON is the benchmark's last output line. Runs that were not
// correct are an error: their numbers mean nothing.
func readResults(r io.Reader) (resultSet, error) {
	set := resultSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		wl, js, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("line %d: want \"<workload> <json>\"", n)
		}
		var res result
		if err := json.Unmarshal([]byte(js), &res); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("line %d: %s run was not correct", n, wl)
		}
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[wl][name] = append(set[wl][name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns Q1, median and Q3 with the same rule as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= len(s) {
			j, delta = len(s)-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares two medians. A metric with a bound is a regression when
// the new median is worse by more than the bound, and an improvement when it
// is better by more than the bound and by more than the old quartile spread.
func verdict(oldMed, newMed, oldIQR float64, better string, bound float64) string {
	if oldMed == 0 {
		return "n/a"
	}
	change := (newMed - oldMed) / oldMed
	if better == "lower" {
		change = -change
	}
	switch {
	case bound == 0:
		return "-"
	case change < -bound:
		return "REGRESSION"
	case change > bound && change*oldMed > oldIQR:
		return "improved"
	}
	return "within bound"
}

// compareMain implements "perfbench compare OLD NEW [BENCHMARK.json]".
func compareMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW [BENCHMARK.json]")
		return 2
	}
	specPath := "BENCHMARK.json"
	if len(args) == 3 {
		specPath = args[2]
	}
	var spec benchSpec
	b, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2]resultSet
	for i, path := range args[:2] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sets[i], err = readResults(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	regressions := writeComparison(os.Stdout, spec, sets[0], sets[1])
	if regressions > 0 {
		return 1
	}
	return 0
}

// writeComparison prints one row per workload × metric present on both
// sides and returns the number of regressions.
func writeComparison(w io.Writer, spec benchSpec, old, cur resultSet) int {
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	var names []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{m.Better, 0}
		names = append(names, m.Name)
	}
	var wls []string
	for wl := range old {
		if cur[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told q1\told median\told q3\tnew q1\tnew median\tnew q3\tchange\tbound\tverdict\t")
	regressions := 0
	for _, wl := range wls {
		for _, name := range names {
			ov, nv := old[wl][name], cur[wl][name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, o2, o3 := quartiles(ov)
			n1, n2, n3 := quartiles(nv)
			r := rules[name]
			v := verdict(o2, n2, o3-o1, r.better, r.bound)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\t\n",
				wl, name, o1, o2, o3, n1, n2, n3, 100*ratio(n2-o2, o2), 100*r.bound, v)
		}
	}
	tw.Flush()
	return regressions
}
