package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func decodeLines(t *testing.T, s string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

func TestJSONLEvents(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.OnSimStart(SimStart{Sim: "ode", T0: 0, T1: 10,
		Species: []string{"R", "G"}, Reactions: []string{"r1"}})
	j.OnClockEdge(ClockEdge{T: 2, Species: "R", Rising: true, Level: 0.5})
	j.OnPhaseChange(PhaseChange{T: 3, From: "red", To: "green"})
	j.OnSimEnd(SimEnd{Sim: "ode", T: 10, Steps: 100, WallSeconds: 0.02})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	recs := decodeLines(t, sb.String())
	var kinds []string
	for _, r := range recs {
		kinds = append(kinds, r["event"].(string))
	}
	want := []string{"sim_start", "clock_edge", "phase_change", "sim_end"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	edge := recs[1]
	if edge["species"] != "R" || edge["rising"] != true || edge["level"] != 0.5 {
		t.Fatalf("clock_edge = %v", edge)
	}
	end := recs[3]
	if end["steps"] != float64(100) || end["sim"] != "ode" {
		t.Fatalf("sim_end = %v", end)
	}
	if _, has := end["err"]; has {
		t.Fatalf("clean run carries err field: %v", end)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errors.New("disk full")
}

func TestJSONLErr(t *testing.T) {
	fw := &failWriter{}
	j := NewJSONL(fw)
	j.OnClockEdge(ClockEdge{T: 1, Species: "R"})
	if err := j.Err(); err == nil {
		t.Fatal("write error not retained")
	}
	// Later events are dropped without further writes.
	calls := fw.calls
	j.OnClockEdge(ClockEdge{T: 2, Species: "G"})
	if fw.calls != calls {
		t.Fatal("events written after a retained error")
	}
}
