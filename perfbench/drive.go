package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/server"
)

// pollEvery is the sweep-job status poll interval. A closed-loop client
// sleeps between polls, so the batch workers keep both cores.
const pollEvery = time.Millisecond

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcOf checksums request or reply bytes.
func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// spillDir holds the spill files of the clients that keep reply bytes.
var spillDir = ".bench_build"

// outcome is what the client keeps of one request: its timing, whether it
// failed, and where in the spill file the bytes the output check needs
// are. Of a trajectory reply only the "final" tail and a checksum of the
// whole body are kept; ensemble and job replies are kept whole.
type outcome struct {
	req     request
	lat     time.Duration
	fail    string // non-empty for a failed operation
	hit     bool   // X-Cache: hit
	size    int
	crc     uint32
	keepOff int64
	keepLen int
	queued  time.Duration // jobs: submit until a poll saw the job leave "queued"
	running time.Duration // jobs: from then until a poll saw it terminal
}

// client drives a server handler in process, one request at a time. The
// reply bytes the output check needs go to a spill file, not the heap, so
// the process's peak resident set is the server's and does not grow with
// the number of replies a run collects. A client without a spill file, as
// in set-up, keeps no bytes.
type client struct {
	h     http.Handler
	ds    []design
	spill *os.File
	off   int64
	err   error // first failed spill write
}

// openSpill gives the client an unlinked spill file, which lives until it
// is closed.
func (c *client) openSpill() error {
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(spillDir, "replies-*")
	if err != nil {
		return err
	}
	c.spill = f
	return os.Remove(f.Name())
}

// closeSpill closes the spill file and reports the first failed write.
func (c *client) closeSpill() error {
	if err := c.spill.Close(); c.err == nil {
		c.err = err
	}
	return c.err
}

// keep appends the parts to the spill file and records where they are.
func (c *client) keep(o *outcome, parts ...[]byte) {
	if c.spill == nil {
		return
	}
	o.keepOff = c.off
	for _, b := range parts {
		n, err := c.spill.Write(b)
		c.off += int64(n)
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("spill file: %w", err)
		}
	}
	o.keepLen = int(c.off - o.keepOff)
}

// kept reads back the bytes keep wrote for o. It is safe for concurrent
// use once the client has stopped sending.
func (c *client) kept(o *outcome) ([]byte, error) {
	b := make([]byte, o.keepLen)
	_, err := c.spill.ReadAt(b, o.keepOff)
	return b, err
}

func (c *client) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// do sends one request and, for jobs, polls it to a terminal state. The
// body is built before the clock starts: latency runs from request bytes
// in to response bytes out.
func (c *client) do(req request) outcome {
	body := req.Spec.body(c.ds)
	if req.Spec.Job {
		return c.job(req, body)
	}
	start := time.Now()
	rec := c.serve("POST", "/v1/simulate", body)
	o := outcome{req: req, lat: time.Since(start)}
	out := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		o.fail = fmt.Sprintf("status %d: %.200s", rec.Code, out)
		return o
	}
	o.hit = rec.Header().Get("X-Cache") == "hit"
	o.size, o.crc = len(out), crcOf(out)
	if req.Spec.ensemble() {
		c.keep(&o, out)
	} else if i := bytes.LastIndex(out, []byte(`"final":`)); i >= 0 {
		c.keep(&o, []byte("{"), out[i:])
	} else {
		o.fail = "reply has no final state"
	}
	return o
}

func (c *client) job(req request, body []byte) outcome {
	start := time.Now()
	rec := c.serve("POST", "/v1/jobs", body)
	o := outcome{req: req}
	if rec.Code != http.StatusAccepted {
		o.lat = time.Since(start)
		o.fail = fmt.Sprintf("submit status %d: %.200s", rec.Code, rec.Body.Bytes())
		return o
	}
	var st server.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		o.lat = time.Since(start)
		o.fail = "submit reply: " + err.Error()
		return o
	}
	path := "/v1/jobs/" + st.ID
	var left time.Time
	for {
		time.Sleep(pollEvery)
		rec = c.serve("GET", path, nil)
		now := time.Now()
		if rec.Code != http.StatusOK {
			o.lat = now.Sub(start)
			o.fail = fmt.Sprintf("poll status %d: %.200s", rec.Code, rec.Body.Bytes())
			return o
		}
		var state struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &state); err != nil {
			o.lat = now.Sub(start)
			o.fail = "poll reply: " + err.Error()
			return o
		}
		if state.State != "queued" && left.IsZero() {
			left = now
			o.queued = now.Sub(start)
		}
		switch state.State {
		case "queued", "running":
			continue
		case "done":
			o.lat = now.Sub(start)
			o.running = now.Sub(left)
			out := rec.Body.Bytes()
			// The checksum skips the status header, whose creation
			// timestamp differs between runs; the results never do.
			o.size, o.crc = len(out), crcOf(out[max(0, bytes.Index(out, []byte(`"results":`))):])
			c.keep(&o, out)
			return o
		default:
			o.lat = now.Sub(start)
			o.fail = fmt.Sprintf("job ended %s: %.200s", state.State, rec.Body.Bytes())
			return o
		}
	}
}

// setup builds a server with crnserved's defaults and sends the workload's
// warm-up pass: each distinct network once, at a horizon no timed request
// uses, so the pass parses, fills the network cache and compiles without
// priming a single timed reply.
func setup(w *workload, ds []design) (*server.Server, *client, error) {
	s := server.New(server.Config{})
	c := &client{h: s.Handler(), ds: ds}
	for i, d := range w.designs {
		o := c.do(request{ID: -1 - i, Class: "warm-up", Spec: w.warm(d), Repeat: -1})
		if o.fail != "" {
			stop(s)
			return nil, nil, fmt.Errorf("warm-up %s: %s", ds[d].name, o.fail)
		}
	}
	return s, c, nil
}

// stop drains a server: background samplers end and no job is left running.
func stop(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}
