package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmoke runs every workload at a sub-second scale in both modes and
// checks that it prints exactly the declared metrics with their units,
// fails nothing, and that the traced runs emit every span name.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	dir := t.TempDir()
	t.Setenv("PERFBENCH_OUT", dir)
	names := map[string]bool{}
	for _, w := range []string{"etc", "udp-small", "cluster-rw"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 0.6, trace: trace, scale: 0.05}
			rep, err := execute(cfg, workloads[w])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool   `json:"correct"`
				Attempted uint64 `json:"attempted"`
				Failed    uint64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64
					Unit  string
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := e2e
			if trace {
				want = layers
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %q, declared %q (declared at all: %v)", w, trace, name, m.Unit, unit, ok)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: %d metrics, %d declared: %v", w, trace, len(got), len(want), got)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
				continue
			}
			spans, err := filepath.Glob(filepath.Join(dir, "spans-"+w+"-*.jsonl"))
			if err != nil || len(spans) != 1 {
				t.Fatalf("%s: span files %v (%v)", w, spans, err)
			}
			f, err := os.Open(spans[0])
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s struct{ Name string }
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("%s: span line %q: %v", w, sc.Text(), err)
				}
				names[s.Name] = true
			}
			f.Close()
		}
	}
	for _, n := range spanNames {
		if !names[n] {
			t.Errorf("no traced run emitted a %s span", n)
		}
	}
}

func TestParseReplyStrict(t *testing.T) {
	for _, c := range []struct {
		in   string
		kind replyKind
		val  string
		err  bool
	}{
		{in: "+OK\r\n", kind: replySimple, val: "OK"},
		{in: "$3\r\nabc\r\n", kind: replyBulk, val: "abc"},
		{in: "$0\r\n\r\n", kind: replyBulk, val: ""},
		{in: "$-1\r\n", kind: replyNil},
		{in: "-ERR boom\r\n", err: true},
		{in: "$3\r\nabcd\r\n", err: true},
		{in: "$03\r\nabc\r\n", err: true},
		{in: "$x\r\n", err: true},
		{in: ":1\r\n", err: true},
		{in: "\r\n", err: true},
	} {
		val, kind, used, err := parseReply([]byte(c.in))
		if (err != nil) != c.err {
			t.Errorf("%q: err %v, want error %v", c.in, err, c.err)
			continue
		}
		if err == nil && (kind != c.kind || string(val) != c.val || used != len(c.in)) {
			t.Errorf("%q: kind %d val %q used %d", c.in, kind, val, used)
		}
	}
	for _, partial := range []string{"", "+O", "$3\r\nab", "$3\r\nabc\r"} {
		if _, _, _, err := parseReply([]byte(partial)); err != errShort {
			t.Errorf("%q: %v, want errShort", partial, err)
		}
	}
}
