// Command selcached serves the reproduction's simulation engine over a
// JSON HTTP API with a content-addressed result cache (docs/SERVICE.md),
// and optionally as part of a sweep cluster (docs/CLUSTER.md).
//
// Serve mode (the default):
//
//	selcached -addr :8080 -workers 0 -cachedir /var/cache/selcache \
//	          -tracedir /var/cache/selcache/traces -timeout 2m
//
// The daemon logs the bound address to stderr ("selcached: listening on
// ..."), so -addr 127.0.0.1:0 works for scripts that need a free port.
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// in-flight requests complete, background cache fills finish, then the
// process exits 0.
//
// Every non-worker daemon is also a cluster coordinator: it mounts the
// /v1/cluster/* endpoints and shards sweep cells across any workers that
// join (with zero workers it behaves exactly like a single node). Worker
// mode turns those roles around — the node announces itself to a
// coordinator and serves forwarded cells:
//
//	selcached -addr :8081 -worker -join http://coordinator:8080 \
//	          -advertise http://worker1:8081
//
// Client mode (selcachectl equivalent):
//
//	selcached ctl -addr http://127.0.0.1:8080 -timeout 2m health
//	selcached ctl run -bench swim -config base -mech bypass
//	selcached ctl estimate -bench swim -config base
//	selcached ctl sweep -benches swim,compress -configs base
//	selcached ctl result -key <sha256>
//	selcached ctl cluster status|workers|shards
//	selcached ctl workloads | metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"selcache/internal/cluster"
	"selcache/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "selcached: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches between serve mode and ctl mode; testable like the
// other commands.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "ctl" {
		return runCtl(args[1:], stdout, stderr)
	}
	return runServe(args, stdout, stderr, nil)
}

// newHTTPServer wraps the handler with the listener-level timeouts a
// daemon facing untrusted clients needs: ReadHeaderTimeout defeats
// slowloris-style header dribbling, IdleTimeout reaps abandoned
// keep-alive connections. Deliberately no ReadTimeout/WriteTimeout —
// request bodies are tiny, but a response may legitimately take as long
// as a cold simulation.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// runServe boots the daemon. ready, when non-nil, receives the bound
// address once the listener is up (tests and the smoke scripts use the
// stderr line instead).
func runServe(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("selcached", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		workers  = fs.Int("workers", 0, "concurrent simulation bound (0: one per CPU)")
		tracedir = fs.String("tracedir", "", "persist recorded event traces as .sctrace files in `dir`")
		cachedir = fs.String("cachedir", "", "persist simulation results as <key>.json files in `dir`")
		entries  = fs.Int("cache-entries", 4096, "in-memory result cache capacity")
		timeout  = fs.Duration("timeout", 2*time.Minute, "default per-request deadline (0: none)")
		backlog  = fs.Int("max-backlog", 0, "queued-simulation bound before shedding with 429 (0: 16x workers, at least 256)")
		bgFills  = fs.Int("max-bg-fills", 0, "bound on background cache fills for timed-out requests (0: worker count; negative: none)")

		workerMode = fs.Bool("worker", false, "run as a cluster worker (requires -join)")
		join       = fs.String("join", "", "coordinator base `URL` to announce to (worker mode)")
		advertise  = fs.String("advertise", "", "base `URL` other nodes reach this node at (default http://<bound addr>)")
		healthInt  = fs.Duration("health-interval", 3*time.Second, "cluster liveness cadence: coordinator probe interval, worker announce interval")
		hedgeAfter = fs.Duration("hedge-after", 10*time.Second, "coordinator: duplicate a straggling cell to another worker after this long (negative disables)")
		peerWait   = fs.Duration("peer-timeout", time.Second, "coordinator: bound one peer-cache fetch from the ring owner (negative disables the peer tier)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only; did you mean 'selcached ctl'?)", fs.Arg(0))
	}
	if *workerMode && *join == "" {
		return errors.New("-worker requires -join <coordinator URL>")
	}
	if !*workerMode && *join != "" {
		return errors.New("-join only makes sense with -worker")
	}

	role := "coordinator"
	if *workerMode {
		role = "worker"
	}
	srv := server.New(server.Config{
		Workers:            *workers,
		TraceDir:           *tracedir,
		CacheDir:           *cachedir,
		CacheEntries:       *entries,
		DefaultTimeout:     *timeout,
		MaxBacklog:         *backlog,
		MaxBackgroundFills: *bgFills,
		Role:               role,
		Log:                stderr,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	self := strings.TrimSuffix(*advertise, "/")
	if self == "" {
		self = "http://" + ln.Addr().String()
	}

	// Cluster wiring. A worker announces itself to the coordinator and
	// pins forwarded cells to its local engine; every other daemon is a
	// coordinator — it shards cells across joined workers and degrades to
	// plain single-node service while none are live.
	var coord *cluster.Coordinator
	stopAnnounce := make(chan struct{})
	announceDone := make(chan struct{})
	if *workerMode {
		fmt.Fprintf(stderr, "selcached: worker mode, announcing %s to %s every %v\n", self, *join, *healthInt)
		go func() {
			defer close(announceDone)
			cluster.Announce(stopAnnounce, *join, self, *healthInt, stderr)
		}()
	} else {
		close(announceDone)
		coord = cluster.New(cluster.Config{
			Self:           self,
			HealthInterval: *healthInt,
			HedgeAfter:     *hedgeAfter,
			PeerTimeout:    *peerWait,
			Log:            stderr,
		})
		srv.SetRemote(coord.Execute)
		srv.SetPeerFetch(coord.FetchCached)
		coord.Register(srv.Mux())
	}

	fmt.Fprintf(stderr, "selcached: listening on %s (%s, %s)\n", ln.Addr(), role, srv.Describe())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop heartbeating first (a draining worker should
	// fall out of its coordinator's live set), stop accepting, let
	// in-flight requests finish (the shutdown grace period must outlive
	// the slowest simulation), then wait for background cache fills.
	fmt.Fprintln(stderr, "selcached: draining")
	close(stopAnnounce)
	<-announceDone
	if coord != nil {
		coord.Close()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Drain()
	fmt.Fprintln(stderr, "selcached: drained, exiting")
	return nil
}

// runCtl is the bundled client. The action comes first so each action can
// define its own flags:
//
//	selcached ctl [-addr URL] <health|metrics|workloads|run|sweep|result|cluster> [flags]
func runCtl(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("selcached ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL")
	timeout := fs.Duration("timeout", 2*time.Minute, "whole-request deadline (dial, headers and body; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("ctl: missing action (health|metrics|workloads|run|estimate|sweep|result|cluster)")
	}
	if *timeout < 0 {
		return fmt.Errorf("ctl: negative -timeout %v", *timeout)
	}
	action, rest := fs.Arg(0), fs.Args()[1:]
	c := &ctlClient{
		base: strings.TrimSuffix(*addr, "/"),
		// A bounded client, never http.DefaultClient: against a wedged or
		// unreachable server the default's missing timeout blocks ctl
		// forever. Timeout covers the whole exchange including the body,
		// which is right for an API whose responses are small JSON.
		hc:     &http.Client{Timeout: *timeout},
		stdout: stdout,
	}

	switch action {
	case "health":
		return c.get("/healthz", rest)
	case "metrics":
		return c.get("/metrics", rest)
	case "workloads":
		return c.get("/v1/workloads", rest)
	case "run":
		return ctlRun(c, rest, stderr)
	case "estimate":
		return ctlEstimate(c, rest, stderr)
	case "sweep":
		return ctlSweep(c, rest, stderr)
	case "result":
		return ctlResult(c, rest, stderr)
	case "cluster":
		return ctlCluster(c, rest)
	default:
		return fmt.Errorf("ctl: unknown action %q", action)
	}
}

// ctlClient is the bounded HTTP client all ctl actions share. Transport
// errors are wrapped with the target address, so a misconfigured -addr is
// visible in the message even when the underlying error elides it.
type ctlClient struct {
	base   string
	hc     *http.Client
	stdout io.Writer
}

// ctlGetAttempts bounds the fetch retry loop for idempotent reads.
const ctlGetAttempts = 3

// fetch issues a GET, retrying transient transport errors (connection
// refused or reset mid-exchange, as during a rolling restart) with capped
// exponential backoff. Only reads go through here — replaying run/sweep
// POSTs is the server's in-flight dedup's call to make, not the client's. A
// client-side timeout is not retried: the deadline is already spent, and
// another attempt would silently double it.
func (c *ctlClient) fetch(path string) (*http.Response, error) {
	var lastErr error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < ctlGetAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		resp, err := c.hc.Get(c.base + path)
		if err == nil {
			return resp, nil
		}
		lastErr = fmt.Errorf("ctl: %s: %w", c.base, err)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			break
		}
	}
	return nil, lastErr
}

func (c *ctlClient) get(path string, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	resp, err := c.fetch(path)
	if err != nil {
		return err
	}
	return ctlBody(resp, c.stdout)
}

func (c *ctlClient) post(path, body string) error {
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("ctl: %s: %w", c.base, err)
	}
	return ctlBody(resp, c.stdout)
}

func ctlRun(c *ctlClient, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("selcached ctl run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "", "benchmark name (required)")
		config   = fs.String("config", "base", "machine configuration")
		mech     = fs.String("mech", "bypass", "bypass|victim")
		version  = fs.String("version", "", "restrict response to one version")
		classify = fs.Bool("classify", false, "attribute misses to conflict/capacity/compulsory")
		policy   = fs.String("policy", "lru", "replacement policy: lru|ehc")
		waymemo  = fs.Bool("waymemo", false, "enable way memoization")
		energyOn = fs.Bool("energy", false, "enable the energy model")
		timeout  = fs.Int64("timeout-ms", 0, "request deadline in milliseconds (0: server default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *bench == "" {
		return errors.New("ctl run: -bench is required")
	}
	body := fmt.Sprintf(`{"workload":%q,"config":%q,"mechanism":%q,"classify":%v,"policy":%q,"waymemo":%v,"energy":%v,"version":%q,"timeout_ms":%d}`,
		*bench, *config, *mech, *classify, *policy, *waymemo, *energyOn, *version, *timeout)
	return c.post("/v1/run", body)
}

// ctlEstimate asks the zero-cost tier for a symbolic locality estimate —
// no simulation runs, so the answer is immediate even on a busy server.
func ctlEstimate(c *ctlClient, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("selcached ctl estimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("bench", "", "benchmark name or synthetic family#seed (required)")
		config = fs.String("config", "base", "machine configuration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *bench == "" {
		return errors.New("ctl estimate: -bench is required")
	}
	body := fmt.Sprintf(`{"workload":%q,"config":%q}`, *bench, *config)
	return c.post("/v1/estimate", body)
}

func ctlSweep(c *ctlClient, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("selcached ctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benches = fs.String("benches", "", "comma-separated benchmarks (empty: all)")
		configs = fs.String("configs", "", "comma-separated configurations (empty: all)")
		mechs   = fs.String("mechs", "", "comma-separated mechanisms (empty: both)")
		timeout = fs.Int64("timeout-ms", 0, "request deadline in milliseconds (0: server default)")
		estTop  = fs.Int("estimate-top", 0, "prune each sweep to its N most interesting workloads as scored by the symbolic estimator")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	body := fmt.Sprintf(`{"workloads":%s,"configs":%s,"mechanisms":%s,"timeout_ms":%d,"estimate_top":%d}`,
		jsonList(*benches), jsonList(*configs), jsonList(*mechs), *timeout, *estTop)
	return c.post("/v1/sweep", body)
}

func ctlResult(c *ctlClient, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("selcached ctl result", flag.ContinueOnError)
	fs.SetOutput(stderr)
	key := fs.String("key", "", "content-addressed result key (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	if *key == "" {
		return errors.New("ctl result: -key is required")
	}
	return c.get("/v1/results/"+*key, nil)
}

// ctlCluster inspects a coordinator: status and shards stream the raw
// JSON, workers renders a human-readable membership table.
func ctlCluster(c *ctlClient, args []string) error {
	if len(args) == 0 {
		return errors.New("ctl cluster: missing subaction (status|workers|shards)")
	}
	switch args[0] {
	case "status":
		return c.get("/v1/cluster/status", args[1:])
	case "shards":
		return c.get("/v1/cluster/shards", args[1:])
	case "workers":
		if len(args) > 1 {
			return fmt.Errorf("unexpected argument %q", args[1])
		}
		return ctlClusterWorkers(c)
	default:
		return fmt.Errorf("ctl cluster: unknown subaction %q (status|workers|shards)", args[0])
	}
}

func ctlClusterWorkers(c *ctlClient) error {
	resp, err := c.fetch("/v1/cluster/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var st cluster.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("ctl: decoding cluster status: %w", err)
	}
	fmt.Fprintf(c.stdout, "workers: %d live / %d total\n", st.LiveWorkers, st.TotalWorkers)
	tw := tabwriter.NewWriter(c.stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "ADDR\tSTATE\tVERSION\tIN-FLIGHT\tCELLS\tERRORS\tLAST-OK")
	for _, w := range st.Workers {
		lastOK := "never"
		if w.LastOKSecAgo >= 0 {
			lastOK = fmt.Sprintf("%.0fs ago", w.LastOKSecAgo)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%s\n", w.Addr, w.State, w.Version, w.InFlight, w.Cells, w.Errors, lastOK)
	}
	return tw.Flush()
}

// jsonList renders a comma-separated flag value as a JSON string array
// ("[]" when empty, which the server treats as "all").
func jsonList(csv string) string {
	if csv == "" {
		return "[]"
	}
	parts := strings.Split(csv, ",")
	quoted := make([]string, len(parts))
	for i, p := range parts {
		quoted[i] = fmt.Sprintf("%q", strings.TrimSpace(p))
	}
	return "[" + strings.Join(quoted, ",") + "]"
}

// ctlBody streams the response to stdout and turns non-2xx statuses into
// a command error (after printing the server's JSON error body).
func ctlBody(resp *http.Response, stdout io.Writer) error {
	defer resp.Body.Close()
	if _, err := io.Copy(stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
