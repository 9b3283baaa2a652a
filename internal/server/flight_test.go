package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"llstar"
	"llstar/internal/obs"
	"llstar/internal/obs/flight"
)

// syncBuffer serializes concurrent slog writes (the access log and the
// flight finalizer log from different goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// memTracer collects events for span assertions.
type memTracer struct {
	mu     sync.Mutex
	events []obs.Event
	epoch  time.Time
}

func newMemTracer() *memTracer { return &memTracer{epoch: time.Now()} }

func (m *memTracer) Emit(e obs.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memTracer) Now() time.Duration { return time.Since(m.epoch) }

func (m *memTracer) find(name string) (obs.Event, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.events) - 1; i >= 0; i-- {
		if m.events[i].Name == name {
			return m.events[i], true
		}
	}
	return obs.Event{}, false
}

// TestFlightCaptureCorrelation is the acceptance path: an induced slow
// parse (FlightSlow: 1ns captures everything) must yield a capture
// retrievable via /debug/flight/{id} whose request_id and trace_id
// match the response headers, the slog access line, and the
// server.parse span.
func TestFlightCaptureCorrelation(t *testing.T) {
	logbuf := &syncBuffer{}
	tr := newMemTracer()
	s, _ := newTestServer(t, Config{
		Debug:      true,
		FlightSlow: time.Nanosecond,
		Logger:     slog.New(slog.NewJSONHandler(logbuf, nil)),
		Tracer:     tr,
	}, map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
		parseRequest{Grammar: "expr", Input: "x = 1 ;"})
	if resp.StatusCode != 200 {
		t.Fatalf("parse = %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")
	traceID := traceIDFrom(resp.Header.Get("Traceparent"))
	if rid == "" || traceID == "" {
		t.Fatalf("missing correlation headers: rid=%q trace=%q", rid, traceID)
	}

	// Capture listed and retrievable by store id AND by request id.
	code, body := getBody(t, ts.URL+"/debug/flight")
	if code != 200 {
		t.Fatalf("/debug/flight = %d", code)
	}
	var list flightListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Captures) != 1 {
		t.Fatalf("captures = %d, want 1", len(list.Captures))
	}
	sum := list.Captures[0]
	if sum.RequestID != rid || sum.TraceID != traceID {
		t.Errorf("capture identity = %q/%q, want %q/%q", sum.RequestID, sum.TraceID, rid, traceID)
	}
	if sum.Trigger != "slow" || sum.Grammar != "expr" || sum.Status != 200 {
		t.Errorf("capture summary = %+v", sum)
	}
	if sum.Events != nil {
		t.Error("listing leaked event timeline")
	}

	for _, id := range []string{sum.ID, rid} {
		code, body = getBody(t, ts.URL+"/debug/flight/"+id)
		if code != 200 {
			t.Fatalf("/debug/flight/%s = %d", id, code)
		}
		var cap struct {
			RequestID string `json:"request_id"`
			Events    []struct {
				Name string `json:"name"`
			} `json:"events"`
			Stats struct {
				PredictEvents int `json:"predict_events"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &cap); err != nil {
			t.Fatal(err)
		}
		if cap.RequestID != rid || len(cap.Events) == 0 {
			t.Errorf("capture %s: rid=%q events=%d", id, cap.RequestID, len(cap.Events))
		}
		if cap.Stats.PredictEvents == 0 {
			t.Errorf("capture %s: no predict events in stats", id)
		}
		found := false
		for _, e := range cap.Events {
			if e.Name == "predict" {
				found = true
			}
		}
		if !found {
			t.Errorf("capture %s: timeline has no predict event", id)
		}
	}

	// HTML and Chrome renderings.
	code, body = getBody(t, ts.URL+"/debug/flight/"+sum.ID+"?format=html")
	if code != 200 || !strings.Contains(string(body), rid) {
		t.Errorf("html rendering = %d (rid present: %v)", code, strings.Contains(string(body), rid))
	}
	code, body = getBody(t, ts.URL+"/debug/flight/"+sum.ID+"?format=chrome")
	var arr []map[string]any
	if code != 200 || json.Unmarshal(body, &arr) != nil || len(arr) == 0 {
		t.Errorf("chrome rendering = %d, %d events", code, len(arr))
	}

	// The slog access line carries the same ids, as structured fields.
	var accessLine map[string]any
	sc := bufio.NewScanner(strings.NewReader(logbuf.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line not JSON: %s", sc.Text())
		}
		if rec["msg"] == "request" && rec["request_id"] == rid {
			accessLine = rec
		}
	}
	if accessLine == nil {
		t.Fatalf("no access log line for %s in:\n%s", rid, logbuf.String())
	}
	for k, want := range map[string]any{
		"endpoint": "parse", "status": float64(200),
		"trace_id": traceID, "grammar": "expr",
	} {
		if accessLine[k] != want {
			t.Errorf("access line %s = %v, want %v", k, accessLine[k], want)
		}
	}
	if _, ok := accessLine["dur_ms"].(float64); !ok {
		t.Errorf("access line dur_ms = %v", accessLine["dur_ms"])
	}

	// The server.parse span detail carries "rid traceid".
	span, ok := tr.find("server.parse")
	if !ok {
		t.Fatal("no server.parse span emitted")
	}
	if span.Detail != rid+" "+traceID {
		t.Errorf("span detail = %q, want %q", span.Detail, rid+" "+traceID)
	}
}

func TestFlightDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{Debug: true, DisableFlight: true},
		map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
		parseRequest{Grammar: "expr", Input: "x = 1 ;"}); resp.StatusCode != 200 {
		t.Fatalf("parse with flight disabled = %d", resp.StatusCode)
	}
	code, body := getBody(t, ts.URL+"/debug/flight")
	if code != 404 || !strings.Contains(string(body), "disabled") {
		t.Errorf("/debug/flight disabled = %d %s", code, body)
	}
	if s.FlightStore() != nil {
		t.Error("FlightStore non-nil with DisableFlight")
	}
}

// TestFlight504AbandonedCapture: a parse that outlives its request
// deadline answers 504 immediately, and the abandoned background parse
// still finalizes a capture (trigger "status", status 504) once it
// completes.
func TestFlight504AbandonedCapture(t *testing.T) {
	s, _ := newTestServer(t, Config{
		RequestTimeout: time.Millisecond,
		MaxBodyBytes:   16 << 20,
		FlightSlow:     -1, // latency trigger disarmed: the capture must come from the 504
	}, map[string]string{"json": jsonGrammar})
	if err := s.Preload("json"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
		parseRequest{Grammar: "json", Input: bigJSONInput(300_000)})
	if resp.StatusCode != 504 {
		t.Fatalf("timeout = %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-Id")

	// The background parse finishes after the handler returned; poll
	// until its capture lands.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if c, ok := s.FlightStore().Get(rid); ok {
			if c.Status != 504 || c.Trigger != "status" {
				t.Errorf("abandoned capture = status %d trigger %q", c.Status, c.Trigger)
			}
			if c.EventCount == 0 {
				t.Error("abandoned capture has no events")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no capture for the 504-abandoned parse")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightPanicCapture drives the parse-goroutine panic path: an
// Entry with a nil grammar makes doParse dereference nil, which the
// goroutine recovers into an internal-error response and a "panic"
// capture — the recoverPanics middleware never sees that goroutine.
func TestFlightPanicCapture(t *testing.T) {
	logbuf := &syncBuffer{}
	s, _ := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(logbuf, nil)),
	}, map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rec.Header().Set(requestIDHeader, "panic-req")
	fr := s.newFlightRun(rec, "parse", "broken")
	resp, ok := s.parseWithDeadline(context.Background(), &Entry{Name: "broken"},
		parseRequest{Grammar: "broken", Input: "x"}, fr)
	if !ok {
		t.Fatal("parseWithDeadline gave up instead of recovering")
	}
	if !resp.internalErr || resp.Error == nil || !strings.Contains(resp.Error.Msg, "internal error") {
		t.Fatalf("panic response = %+v", resp)
	}
	c, found := s.FlightStore().Get("panic-req")
	if !found {
		t.Fatal("no capture for panicked parse")
	}
	if c.Trigger != "panic" || c.Status != 500 {
		t.Errorf("panic capture = trigger %q status %d", c.Trigger, c.Status)
	}
	if !strings.Contains(logbuf.String(), `"msg":"panic"`) {
		t.Errorf("panic not logged:\n%s", logbuf.String())
	}
}

func TestTraceparentAcceptGenerateEcho(t *testing.T) {
	s, _ := newTestServer(t, Config{}, map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(traceparent string) string {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/v1/grammars", nil)
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("Traceparent")
	}

	// Valid inbound context: same trace id, fresh parent id.
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	out := do(in)
	if traceIDFrom(out) != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id not preserved: %q", out)
	}
	if out == in {
		t.Error("parent id not re-minted")
	}

	// Absent or malformed: a fresh, valid traceparent is generated.
	for _, bad := range []string{
		"",
		"not-a-traceparent",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero parent id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-011", // wrong segment widths
	} {
		out := do(bad)
		if _, ok := parseTraceparent(out); !ok {
			t.Errorf("input %q: generated traceparent invalid: %q", bad, out)
		}
		if bad != "" && out == bad {
			t.Errorf("malformed traceparent %q echoed verbatim", bad)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	id, ok := parseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok || id != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("valid header: id=%q ok=%v", id, ok)
	}
	if _, ok := parseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); !ok {
		t.Error("future version with valid shape rejected")
	}
}

// TestRequestIDEdgeCases: sanitization of hostile ids and the echo on
// every error status (413, 429, 504).
func TestRequestIDEdgeCases(t *testing.T) {
	s, _ := newTestServer(t, Config{
		MaxBodyBytes:   256,
		MaxInFlight:    1,
		QueueWait:      -1,
		RequestTimeout: 10 * time.Second,
	}, map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A newline-smuggling id never reaches the wire (the net/http
	// client refuses it), so check the sanitizer on it directly.
	if got := sanitizeRequestID("id\nwith\nnewlines"); got != "" {
		t.Errorf("newline id sanitized to %q, want rejection", got)
	}

	// Oversized (>64) and garbage ids are replaced with generated ones.
	for _, hostile := range []string{
		strings.Repeat("a", 65),
		"unicode-✂️-id",
		"semi;colon",
	} {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/grammars", nil)
		req.Header.Set("X-Request-Id", hostile)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if got == hostile || len(got) != 16 {
			t.Errorf("hostile id %q passed through as %q", hostile, got)
		}
	}
	// Max-length clean id survives verbatim.
	maxID := strings.Repeat("a", 64)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/grammars", nil)
	req.Header.Set("X-Request-Id", maxID)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != maxID {
		t.Errorf("64-char id rewritten: %q", got)
	}

	// 413: oversize body still carries the id in header and error JSON.
	req413, _ := http.NewRequest("POST", ts.URL+"/v1/parse",
		strings.NewReader(`{"grammar":"expr","input":"`+strings.Repeat("x", 4096)+`"}`))
	req413.Header.Set("X-Request-Id", "id-413")
	resp413, err := ts.Client().Do(req413)
	if err != nil {
		t.Fatal(err)
	}
	body413, _ := io.ReadAll(resp413.Body)
	resp413.Body.Close()
	if resp413.StatusCode != 413 || resp413.Header.Get("X-Request-Id") != "id-413" {
		t.Errorf("413 echo: status %d id %q", resp413.StatusCode, resp413.Header.Get("X-Request-Id"))
	}
	var er413 errorResponse
	if json.Unmarshal(body413, &er413) != nil || er413.Error.RequestID != "id-413" {
		t.Errorf("413 error JSON: %s", body413)
	}

	// 429: hold the only slot, then observe the shed request's id.
	release := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		s.slots <- struct{}{}
		close(acquired)
		<-release
		<-s.slots
	}()
	<-acquired
	req429, _ := http.NewRequest("POST", ts.URL+"/v1/parse",
		strings.NewReader(`{"grammar":"expr","input":"x = 1 ;"}`))
	req429.Header.Set("X-Request-Id", "id-429")
	resp429, err := ts.Client().Do(req429)
	if err != nil {
		t.Fatal(err)
	}
	body429, _ := io.ReadAll(resp429.Body)
	resp429.Body.Close()
	close(release)
	if resp429.StatusCode != 429 || resp429.Header.Get("X-Request-Id") != "id-429" {
		t.Errorf("429 echo: status %d id %q", resp429.StatusCode, resp429.Header.Get("X-Request-Id"))
	}
	var er429 errorResponse
	if json.Unmarshal(body429, &er429) != nil || er429.Error.RequestID != "id-429" {
		t.Errorf("429 error JSON: %s", body429)
	}
}

// TestRequestID504Echo runs the (slow) timeout path separately so the
// edge-case test above stays fast.
func TestRequestID504Echo(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: time.Millisecond, MaxBodyBytes: 16 << 20},
		map[string]string{"json": jsonGrammar})
	if err := s.Preload("json"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	data, _ := json.Marshal(parseRequest{Grammar: "json", Input: bigJSONInput(300_000)})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/parse", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", "id-504")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 504 || resp.Header.Get("X-Request-Id") != "id-504" {
		t.Fatalf("504 echo: status %d id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
	var er errorResponse
	if json.Unmarshal(body, &er) != nil || er.Error.RequestID != "id-504" {
		t.Errorf("504 error JSON: %s", body)
	}
}

// TestBatchItemRequestID: every failed batch item carries the batch's
// request id so fanned-out errors stay correlatable.
func TestBatchItemRequestID(t *testing.T) {
	s, _ := newTestServer(t, Config{}, map[string]string{"expr": exprGrammar})
	if err := s.Preload("expr"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data, _ := json.Marshal(batchRequest{
		Grammar: "expr",
		Inputs:  []string{"x = 1 ;", "not ! valid", "y = 2 ;", "also @ bad"},
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/batch", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", "batch-rid")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch = %d %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Succeeded != 2 || br.Failed != 2 {
		t.Fatalf("batch outcome = %d/%d", br.Succeeded, br.Failed)
	}
	for i, r := range br.Results {
		if r.OK {
			continue
		}
		if r.Error == nil || r.Error.RequestID != "batch-rid" {
			t.Errorf("failed item %d: error request_id = %+v, want batch-rid", i, r.Error)
		}
	}
}

// btGrammar backtracks (PEG mode) with memoization, so a parse's stats
// carry backtracking and memo activity.
const btGrammar = `
grammar Bt;
options { backtrack=true; memoize=true; }
t : e ';' | e '!' ;
e : INT | '-' e ;
INT : ('0'..'9')+ ;
WS : (' ')+ { skip(); } ;
`

// TestParseStatsMatchLibrary: the stats object of a pooled /v1/parse
// (twice, so the second reuses a pooled parser), of a recover:true
// parse, and of each one's flight capture all equal what llstar.Stats
// reports for the same input.
func TestParseStatsMatchLibrary(t *testing.T) {
	const input = "- - - 5 !"
	g, err := llstar.Load("bt.g", btGrammar)
	if err != nil {
		t.Fatal(err)
	}
	want := func(opts ...llstar.ParserOption) statsJSON {
		p := g.NewParser(append(opts, llstar.WithTree(), llstar.WithStats())...)
		if _, err := p.Parse("t", input); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		out := statsJSON{
			PredictEvents: st.TotalEvents(), MaxLookahead: st.MaxK(), BacktrackEvents: st.BacktrackEvents(),
			MemoHits: st.MemoHits, MemoMisses: st.MemoMisses, MemoEntries: st.MemoEntries,
		}
		for _, d := range st.Decisions {
			out.BacktrackTokens += d.SumBacktrackK
		}
		if out.BacktrackEvents == 0 || out.MemoHits+out.MemoMisses == 0 {
			t.Fatalf("input exercises no backtracking or memo: %+v", out)
		}
		return out
	}

	s, _ := newTestServer(t, Config{Debug: true, FlightSlow: time.Nanosecond}, map[string]string{"bt": btGrammar})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, recover := range []bool{false, false, true} {
		exp := want()
		if recover {
			exp = want(llstar.WithRecovery(0))
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/parse",
			parseRequest{Grammar: "bt", Rule: "t", Input: input, Stats: true, Recover: recover})
		var pr parseResponse
		if err := json.Unmarshal(body, &pr); err != nil || !pr.OK || pr.Stats == nil {
			t.Fatalf("recover=%v: parse = %d %s", recover, resp.StatusCode, body)
		}
		if *pr.Stats != exp {
			t.Errorf("recover=%v: response stats %+v, library %+v", recover, *pr.Stats, exp)
		}

		code, body := getBody(t, ts.URL+"/debug/flight/"+resp.Header.Get("X-Request-Id"))
		var cap struct {
			Stats flight.Stats `json:"stats"`
		}
		if err := json.Unmarshal(body, &cap); code != 200 || err != nil {
			t.Fatalf("recover=%v: capture = %d %v", recover, code, err)
		}
		fs := flight.Stats{
			Tokens: int64(pr.Tokens), PredictEvents: exp.PredictEvents, MaxLookahead: exp.MaxLookahead,
			BacktrackEvents: exp.BacktrackEvents, BacktrackTokens: exp.BacktrackTokens,
			MemoHits: exp.MemoHits, MemoMisses: exp.MemoMisses,
		}
		if cap.Stats != fs {
			t.Errorf("recover=%v: capture stats %+v, library %+v", recover, cap.Stats, fs)
		}
	}
}
