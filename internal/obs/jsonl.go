package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// JSONL is an Observer that streams events to w as JSON Lines — one JSON
// object per line, each carrying an "event" discriminator:
//
//	{"event":"sim_start","sim":"ode","t0":0,"t1":120,"species":[...],"reactions":[...]}
//	{"event":"clock_edge","t":13.82,"species":"G","rising":true,"level":0.5}
//	{"event":"phase_change","t":13.9,"from":"R","to":"G"}
//	{"event":"sim_end","sim":"ode","t":120,"steps":48210,"wall_seconds":0.21}
//
// Writes are serialized internally; the first write error is retained and
// reported by Err (subsequent events are dropped).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Err returns the first write/encoding error encountered, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *JSONL) emit(v any) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(v)
	}
	j.mu.Unlock()
}

type jsonSimStart struct {
	Event     string   `json:"event"`
	Sim       string   `json:"sim"`
	T0        float64  `json:"t0"`
	T1        float64  `json:"t1"`
	Species   []string `json:"species"`
	Reactions []string `json:"reactions"`
}

type jsonSimEnd struct {
	Event       string  `json:"event"`
	Sim         string  `json:"sim"`
	T           float64 `json:"t"`
	Steps       int     `json:"steps"`
	WallSeconds float64 `json:"wall_seconds"`
	Err         string  `json:"err,omitempty"`
}

type jsonClockEdge struct {
	Event   string  `json:"event"`
	T       float64 `json:"t"`
	Species string  `json:"species"`
	Rising  bool    `json:"rising"`
	Level   float64 `json:"level"`
}

type jsonPhaseChange struct {
	Event string  `json:"event"`
	T     float64 `json:"t"`
	From  string  `json:"from,omitempty"`
	To    string  `json:"to"`
}

// OnSimStart writes a sim_start record.
func (j *JSONL) OnSimStart(e SimStart) {
	j.emit(jsonSimStart{Event: "sim_start", Sim: e.Sim, T0: e.T0, T1: e.T1,
		Species: e.Species, Reactions: e.Reactions})
}

// OnClockEdge writes a clock_edge record.
func (j *JSONL) OnClockEdge(e ClockEdge) {
	j.emit(jsonClockEdge{Event: "clock_edge", T: e.T, Species: e.Species,
		Rising: e.Rising, Level: e.Level})
}

// OnPhaseChange writes a phase_change record.
func (j *JSONL) OnPhaseChange(e PhaseChange) {
	j.emit(jsonPhaseChange{Event: "phase_change", T: e.T, From: e.From, To: e.To})
}

type jsonAlert struct {
	Event   string  `json:"event"`
	T       float64 `json:"t"`
	Rule    string  `json:"rule"`
	Subject string  `json:"subject,omitempty"`
	Value   float64 `json:"value"`
	Limit   float64 `json:"limit"`
	Detail  string  `json:"detail,omitempty"`
}

// OnAlert writes an alert record.
func (j *JSONL) OnAlert(e Alert) {
	j.emit(jsonAlert{Event: "alert", T: e.T, Rule: e.Rule, Subject: e.Subject,
		Value: e.Value, Limit: e.Limit, Detail: e.Detail})
}

// OnSimEnd writes a sim_end record.
func (j *JSONL) OnSimEnd(e SimEnd) {
	j.emit(jsonSimEnd{Event: "sim_end", Sim: e.Sim, T: e.T, Steps: e.Steps,
		WallSeconds: e.WallSeconds, Err: e.Err})
}
