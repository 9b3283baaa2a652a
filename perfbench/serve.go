package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"llstar"
	"llstar/internal/cluster"
	"llstar/internal/obs"
	"llstar/internal/server"
)

// serveConfig is cmd/llstar-serve's configuration at its flag
// defaults: metrics, coverage, the flight recorder and the debug
// endpoints are on, and the JSON access log is formatted as in
// production but written to a discard sink. cacheDir is empty for a
// single server (cold analysis, as with no -cache flag).
func serveConfig(grammarDir, cacheDir string) server.Config {
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})).
		With("app", "llstar-serve")
	return server.Config{
		GrammarDir:           grammarDir,
		CacheDir:             cacheDir,
		RewriteLeftRecursion: true,
		MaxInFlight:          64,
		QueueWait:            100 * time.Millisecond,
		MaxBodyBytes:         1 << 20,
		MaxStreamBytes:       64 << 20,
		MaxSessions:          64,
		SessionIdle:          5 * time.Minute,
		MaxSessionBytes:      4 << 20,
		RequestTimeout:       10 * time.Second,
		Debug:                true,
		FlightSlow:           500 * time.Millisecond,
		Logger:               logger,
		Metrics:              llstar.NewMetrics(),
		Preload:              []string{"all"},
	}
}

// replica is one in-process llstar-serve on a loopback listener.
type replica struct {
	srv   *server.Server
	hs    *http.Server
	ln    net.Listener
	cl    *cluster.Cluster
	addr  string
	mx    *obs.Metrics
	serve chan error
}

func newReplica(cfg server.Config) (*replica, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &replica{srv: s, ln: ln, addr: ln.Addr().String(), mx: cfg.Metrics,
		hs: &http.Server{Handler: s.Handler()}}, nil
}

func (r *replica) start() {
	r.serve = make(chan error, 1)
	go func() { r.serve <- r.hs.Serve(r.ln) }()
}

// close stops the prober and the listener and waits for Serve to
// return.
func (r *replica) close() {
	if r == nil {
		return
	}
	if r.cl != nil {
		r.cl.Stop()
	}
	r.hs.Close()
	if r.serve != nil {
		<-r.serve
	} else {
		r.ln.Close()
	}
}

// attach joins the replicas into one fleet with static peers, probing
// at cmd/llstar-serve's default interval.
func attach(reps []*replica) error {
	for i, r := range reps {
		var peers []string
		for j, p := range reps {
			if j != i {
				peers = append(peers, p.addr)
			}
		}
		cl, err := cluster.New(cluster.Config{
			Self:    r.addr,
			Peers:   peers,
			Metrics: r.mx,
			Logger:  slog.New(slog.NewJSONHandler(io.Discard, nil)),
			Events:  r.srv.EventLog(),
		})
		if err != nil {
			return err
		}
		r.cl = cl
		r.srv.AttachCluster(cl)
		cl.Start()
	}
	return nil
}

// writeGrammarDir stores the six benchmark grammars as a server's
// grammar directory.
func writeGrammarDir(dir string, specs []gspec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, g := range specs {
		if err := os.WriteFile(filepath.Join(dir, g.w.File), []byte(g.src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// target is one grammar as the load generator addresses it.
type target struct {
	grammar string
	url     string // where requests are sent
	owner   string // replica expected in X-Llstar-Served-By ("" on one node)
	bodies  [][]byte
	refs    []reference
}

type parseBody struct {
	Grammar string `json:"grammar"`
	Rule    string `json:"rule"`
	Input   string `json:"input"`
}

type parseReply struct {
	OK   bool   `json:"ok"`
	Text string `json:"text"`
}

// checkReply validates one /v1/parse answer against its reference.
func checkReply(status int, servedBy string, body []byte, t *target, v int) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", t.grammar, status, body)
	}
	if t.owner != "" && servedBy != t.owner {
		return fmt.Errorf("%s: served by %q, want owner %q", t.grammar, servedBy, t.owner)
	}
	var rep parseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("%s: bad reply: %w", t.grammar, err)
	}
	if !rep.OK {
		return fmt.Errorf("%s: ok=false", t.grammar)
	}
	if rep.Text != t.refs[v].tree {
		return fmt.Errorf("%s: tree differs from the reference", t.grammar)
	}
	return nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole reply.
func post(client *http.Client, t *target, v int, buf *bytes.Buffer) (status int, servedBy string, err error) {
	resp, err := client.Post(t.url, "application/json", bytes.NewReader(t.bodies[v]))
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Llstar-Served-By"), err
}

// serveEnv is the serve-mixed (one server) and serve-fleet (two
// replicas, every request sent to the non-owner) workloads.
type serveEnv struct {
	fleet   bool
	specs   []gspec
	inputs  [][]string
	dir     string
	setups  int
	reps    []*replica
	targets []target
	client  *http.Client
}

func newServeEnv(fleet bool, specs []gspec, seed int64, dir string) (*serveEnv, error) {
	e := &serveEnv{fleet: fleet, specs: specs, dir: dir}
	for _, g := range specs {
		e.inputs = append(e.inputs, genInputs(g, seed, serveLines, serveVariants))
	}
	return e, writeGrammarDir(filepath.Join(dir, "grammars"), specs)
}

// setup boots the server(s) and preloads every grammar.
func (e *serveEnv) setup() error {
	e.setups++
	gdir := filepath.Join(e.dir, "grammars")
	if e.fleet {
		var err error
		e.reps, err = bootFleet(gdir, filepath.Join(e.dir, fmt.Sprintf("cache-%d", e.setups)))
		return err
	}
	r, err := bootSingle(gdir)
	if r != nil {
		e.reps = []*replica{r}
	}
	return err
}

// bootSingle starts one server and preloads every grammar: cold
// analysis, no cache dir.
func bootSingle(gdir string) (*replica, error) {
	r, err := newReplica(serveConfig(gdir, ""))
	if err != nil {
		return nil, err
	}
	r.start()
	return r, r.srv.Preload()
}

// bootFleet starts two replicas with empty cache dirs. Replica A
// preloads cold; replica B then preloads, warming itself from A's
// /v1/artifacts. The replicas are returned even on error, for close.
func bootFleet(gdir, cachePrefix string) ([]*replica, error) {
	var reps []*replica
	for _, name := range []string{"a", "b"} {
		r, err := newReplica(serveConfig(gdir, cachePrefix+"-"+name))
		if err != nil {
			return reps, err
		}
		reps = append(reps, r)
	}
	if err := attach(reps); err != nil {
		return reps, err
	}
	for _, r := range reps {
		r.start()
	}
	for _, r := range reps {
		if err := r.srv.Preload(); err != nil {
			return reps, err
		}
	}
	return reps, nil
}

// parseURLs returns the /v1/parse URLs of a grammar's owner and of the
// other replica.
func parseURLs(reps []*replica, owner string) (direct, proxied string) {
	for _, r := range reps {
		if r.addr == owner {
			direct = "http://" + r.addr + "/v1/parse"
		} else {
			proxied = "http://" + r.addr + "/v1/parse"
		}
	}
	return direct, proxied
}

func (e *serveEnv) close() {
	for _, r := range e.reps {
		r.close()
	}
	e.reps = nil
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

// check verifies the fleet warm start, builds the targets from the
// oracle-checked references, and sends every request once untimed.
func (e *serveEnv) check() error {
	if e.fleet {
		b := e.reps[1].mx
		hits := b.Counter("llstar_cache_hits_total").Value()
		misses := b.Counter("llstar_cache_misses_total").Value()
		if misses != 0 || hits != int64(len(e.specs)) {
			return fmt.Errorf("serve-fleet: replica B ran live analysis (cache hits %d, misses %d; want %d, 0)",
				hits, misses, len(e.specs))
		}
	}
	e.client = newClient(4 * runtime.NumCPU())
	place := map[string]string{}
	if e.fleet {
		var err error
		if place, err = placement(e.client, e.reps); err != nil {
			return err
		}
	}
	e.targets = e.targets[:0]
	for i, g := range e.specs {
		entry, err := e.reps[0].srv.Registry().Get(g.name)
		if err != nil {
			return err
		}
		t := target{grammar: g.name, url: "http://" + e.reps[0].addr + "/v1/parse"}
		if e.fleet {
			t.owner = place[g.name]
			_, t.url = parseURLs(e.reps, t.owner)
		}
		for _, in := range e.inputs[i] {
			ref, err := oracle(entry.G, g.name, g.w.Start, g.w.Mode == "PEG", in)
			if err != nil {
				return err
			}
			body, err := json.Marshal(parseBody{Grammar: g.name, Rule: g.w.Start, Input: in})
			if err != nil {
				return err
			}
			t.bodies = append(t.bodies, body)
			t.refs = append(t.refs, ref)
		}
		e.targets = append(e.targets, t)
	}
	var buf bytes.Buffer
	for i := range e.targets {
		t := &e.targets[i]
		for v := range t.bodies {
			status, by, err := post(e.client, t, v, &buf)
			if err == nil {
				err = checkReply(status, by, buf.Bytes(), t, v)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// placement reads /v1/cluster from every replica and requires them to
// agree on the owner of each grammar.
func placement(client *http.Client, reps []*replica) (map[string]string, error) {
	var place map[string]string
	for _, r := range reps {
		resp, err := client.Get("http://" + r.addr + "/v1/cluster")
		if err != nil {
			return nil, err
		}
		var topo cluster.Topology
		err = json.NewDecoder(resp.Body).Decode(&topo)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("/v1/cluster: %w", err)
		}
		if place == nil {
			place = topo.Placement
			continue
		}
		for g, owner := range topo.Placement {
			if place[g] != owner {
				return nil, fmt.Errorf("replicas disagree on the owner of %s: %s vs %s", g, place[g], owner)
			}
		}
	}
	if len(place) == 0 {
		return nil, errors.New("/v1/cluster: empty placement")
	}
	return place, nil
}

// serveChunk is the number of requests per throughput chunk: a
// multiple of the six grammars times the client count, so every chunk
// carries the same mix.
const serveChunk = 48

// completion is one finished request as the window accounting sees it.
type completion struct {
	at    time.Duration
	lines int
}

// loop runs NumCPU closed-loop clients for d. Client c walks the
// grammars round-robin from its own offset, and the variants in turn.
func (e *serveEnv) loop(d time.Duration, tr *tracer) *loopStats {
	clients := runtime.NumCPU()
	per := make([]loopStats, clients)
	done := make([][]completion, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ls := &per[c]
			var buf bytes.Buffer
			T := len(e.targets)
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				k := c*T/clients + i
				t := &e.targets[k%T]
				v := (k / T) % len(t.bodies)
				ls.attempted++
				status, by, err := post(e.client, t, v, &buf)
				t1 := time.Now()
				if err == nil {
					err = checkReply(status, by, buf.Bytes(), t, v)
				}
				if err != nil {
					ls.fail(err)
					continue
				}
				ls.lat = append(ls.lat, t1.Sub(t0))
				done[c] = append(done[c], completion{at: t1.Sub(start), lines: t.refs[v].lines})
				tr.add(0, "client.post", fmt.Sprintf("c%d-%d", c, i), 0, t0, t1)
			}
		}(c)
	}
	wg.Wait()
	ls := &loopStats{}
	for c := range per {
		ls.merge(&per[c])
	}
	ls.chunks = chunksOf(done, d, serveChunk)
	return ls
}

// chunksOf cuts the completions, in time order, into runs of k; a
// chunk's busy time runs from the previous chunk's last completion to
// its own. Completions after the measured interval count for latency
// only.
func chunksOf(done [][]completion, d time.Duration, k int) []chunk {
	var all []completion
	for _, cs := range done {
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var out []chunk
	var prev time.Duration
	for i := k; i <= len(all) && all[i-1].at <= d; i += k {
		c := chunk{ops: k, busy: all[i-1].at - prev}
		for _, x := range all[i-k : i] {
			c.lines += x.lines
		}
		out = append(out, c)
		prev = all[i-1].at
	}
	return out
}
