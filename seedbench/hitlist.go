package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"seedscan/internal/experiment"
	"seedscan/internal/hitlistdb"
	"seedscan/internal/ipaddr"
	"seedscan/internal/longitudinal"
	"seedscan/internal/proto"
	"seedscan/internal/serve"
)

// hitlist-serve sizes: a longitudinal daemon over the full corpus of a
// small world, publishing every epoch, while an open-loop client looks
// addresses up through the serve API.
const (
	hitlistASes  = 100
	hitlistScale = 0.3
	// lookupRate is the open-loop client's fixed request rate (1/s). On a
	// 2-CPU machine with the daemon running, loopback lookups saturate
	// near 10k/s (p50 latency jumps from 1 ms to over 4 ms at 10-14k/s).
	// 2000/s is a fifth of that: the highest rate tried (250, 500, 1000,
	// 2000, 4000, 8000/s) at which lookup p99 and the generator's own
	// lateness stay at the floor they have at 250/s; at 4000/s the p99
	// doubles.
	lookupRate = 2000
	// fixedEpochs is how many leading epochs every run completes, the
	// report digest covers and wall_s times: the part of the run that is
	// the same work on every machine.
	fixedEpochs = 300
	// stallLimit cuts a run off when the daemon cannot finish fixedEpochs.
	stallLimit = 2 * time.Minute
	// lookupWindow is the window behind lookup_p99_ms: half a second of
	// lookups, so each window's p99 has ten samples beyond it. A run has
	// about sixty windows; over five seeds the median of their p99s
	// spread 0.06 (IQR / median) where 2-second windows spread 0.16 and
	// one p99 over the whole run 0.44.
	lookupWindow = lookupRate / 2
	// maxEpochs bounds the daemon's epoch range; a run stops at its
	// deadline long before.
	maxEpochs = 100000
	// hitlistSetups is how many times an untraced run sets the rig up, to
	// report the median set-up time.
	hitlistSetups = 3
)

// hitlistRig is one assembled daemon + store + server.
type hitlistRig struct {
	env    *experiment.Env
	store  *hitlistdb.Store
	daemon *longitudinal.Daemon
	srv    *http.Server
	addr   string
	dir    string
	served chan struct{}
}

func newHitlistRig(seed uint64, dir string, rec *recorder) (*hitlistRig, error) {
	ecfg := envConfig(seed, hitlistASes, hitlistScale, 0)
	var env *experiment.Env
	if rec != nil {
		env = tracedEnv(rec, ecfg)
	} else {
		env = experiment.NewEnv(ecfg)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// The store keeps the default number of generations on disk, as
	// `seedscan daemon` and `seedscan serve` do.
	store, err := hitlistdb.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	d, err := longitudinal.New(longitudinal.Config{
		World:           env.World,
		Prober:          env.Prober,
		Corpus:          env.Full.SortedSlice(),
		Proto:           proto.ICMP,
		Epochs:          maxEpochs,
		Fingerprint:     env.Fingerprint(),
		Publish:         store,
		AliasedPrefixes: env.Offline.Prefixes(),
	})
	if err != nil {
		return nil, err
	}
	s, err := serve.New(store)
	if err != nil {
		return nil, err
	}
	var h http.Handler = s
	if rec != nil {
		h = timedHandler{inner: s, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &hitlistRig{env: env, store: store, daemon: d, dir: dir, addr: ln.Addr().String(),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, served: make(chan struct{})}
	go func() {
		defer close(r.served)
		r.srv.Serve(ln)
	}()
	return r, nil
}

// close stops the server, waits for it, and removes the store.
func (r *hitlistRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		r.srv.Close()
	}
	<-r.served
	os.RemoveAll(r.dir)
}

// lookup is one client request as the client saw it.
type lookup struct {
	idx             int
	addr            ipaddr.Addr
	due, sent, done time.Time
	late            time.Duration
	status          int
	err             error
	body            lookupBody
	ok              bool // the answer equals DB.Lookup on the generation it names
}

// lookupBody mirrors the /v1/lookup response.
type lookupBody struct {
	Generation uint64   `json:"generation"`
	Addr       string   `json:"addr"`
	Found      bool     `json:"found"`
	Responsive bool     `json:"responsive"`
	Protocols  []string `json:"protocols"`
	Alias      string   `json:"alias"`
}

// hitlistRun is what one measured phase produced.
type hitlistRun struct {
	start   time.Duration // recorder time the daemon started (traced rigs)
	reports []longitudinal.EpochReport
	lookups []lookup // in due order
	gens    uint64   // generations the store published
	bytes   int
	wall    time.Duration // daemon start to the fixedEpochs-th publish
	rssMB   float64       // peak RSS when the fixedEpochs-th epoch was published
}

// run drives the daemon and the load generator side by side for at
// least d and at least fixedEpochs epochs, so a slower machine still
// completes the fixed work; a daemon that stops making progress is cut
// off after stallLimit.
func (r *hitlistRig) run(seed uint64, d time.Duration, rec *recorder) (hitlistRun, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out hitlistRun
	if rec != nil {
		out.start = time.Duration(rec.now())
	}
	start := time.Now()
	var wg sync.WaitGroup
	var runErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		out.reports, runErr = r.daemon.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				el, gen := time.Since(start), r.store.Generation()
				if gen >= fixedEpochs && out.wall == 0 {
					// The daemon's memory grows with every epoch it runs, so
					// peak RSS is read at a fixed point of the work.
					out.wall, out.rssMB = el, peakRSSMB()
				}
				if el >= d && gen >= fixedEpochs || el >= d+stallLimit {
					cancel()
					return
				}
			}
		}
	}()
	out.lookups = r.loadgen(ctx, seed)
	wg.Wait()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return out, fmt.Errorf("hitlist-serve: daemon: %w", runErr)
	}
	sort.Slice(out.lookups, func(i, j int) bool { return out.lookups[i].idx < out.lookups[j].idx })
	out.gens = r.store.Generation()
	if db := r.store.Current(); db != nil {
		out.bytes = len(db.Bytes())
	}
	return out, nil
}

// lookupKeys draws the client's keys: addresses present in the first
// published generation and addresses absent from it.
func lookupKeys(db *hitlistdb.DB, corpus []ipaddr.Addr, rng *rand.Rand) (present, absent []ipaddr.Addr) {
	for tries := 0; tries < 1<<16 && (len(present) < 1024 || len(absent) < 1024); tries++ {
		a := corpus[rng.Intn(len(corpus))]
		if _, ok := db.Lookup(a); ok {
			if len(present) < 1024 {
				present = append(present, a)
			}
		}
		b := ipaddr.AddrFrom64s(a.Hi(), rng.Uint64())
		if _, ok := db.Lookup(b); !ok && len(absent) < 1024 {
			absent = append(absent, b)
		}
	}
	return present, absent
}

// loadgen is the open-loop client: one generator goroutine schedules a
// lookup every 1/lookupRate seconds, regardless of replies, and at most
// nproc keep-alive connections carry them. It starts once the first
// generation is published and stops at ctx's deadline.
func (r *hitlistRig) loadgen(ctx context.Context, seed uint64) []lookup {
	for r.store.Current() == nil {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(time.Millisecond):
		}
	}
	rng := rand.New(rand.NewSource(int64(splitmix(seed ^ 0x100c))))
	present, absent := lookupKeys(r.store.Current(), r.env.Full.SortedSlice(), rng)
	if len(present) == 0 || len(absent) == 0 {
		return nil
	}
	conns := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	// The queue holds a second of lookups. A pool that falls further
	// behind blocks the generator, but every lookup keeps its due time, so
	// the stall shows as latency from the due time.
	jobs := make(chan lookup, lookupRate)
	per := make([][]lookup, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chk := answerChecker{store: r.store}
			for j := range jobs {
				j = r.get(client, j)
				j.ok = chk.check(j)
				per[w] = append(per[w], j)
			}
		}(w)
	}
	start := time.Now()
	interval := time.Second / lookupRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		key := present[rng.Intn(len(present))]
		if rng.Intn(2) == 1 {
			key = absent[rng.Intn(len(absent))]
		}
		select {
		case jobs <- lookup{idx: i, addr: key, due: due, late: time.Since(due)}:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()
	var out []lookup
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

func (r *hitlistRig) get(client *http.Client, j lookup) lookup {
	j.sent = time.Now()
	req, err := http.NewRequest(http.MethodGet, "http://"+r.addr+"/v1/lookup?addr="+j.addr.String(), nil)
	if err == nil {
		req.Header.Set(reqHeader, fmt.Sprint(j.idx))
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			j.status = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&j.body)
			resp.Body.Close()
		}
	}
	j.err = err
	j.done = time.Now()
	return j
}

// answerChecker checks each answer as it arrives against DB.Lookup on
// the generation the response names: the store's current generation, or
// else that generation's file, which the store keeps on disk until three
// later generations have been published.
type answerChecker struct {
	store *hitlistdb.Store
	old   *hitlistdb.DB // the last generation opened from its file
}

func (c *answerChecker) check(l lookup) bool {
	if l.err != nil || l.status != http.StatusOK || l.body.Addr != l.addr.String() {
		return false
	}
	db := c.store.Current()
	if db == nil || db.Generation() != l.body.Generation {
		if c.old == nil || c.old.Generation() != l.body.Generation {
			// The file name is the store's generation naming (gen-%08d.hldb).
			old, err := hitlistdb.Open(filepath.Join(c.store.Dir(), fmt.Sprintf("gen-%08d.hldb", l.body.Generation)))
			if err != nil {
				return false
			}
			c.old = old
		}
		db = c.old
	}
	return answerOK(l.addr, l.body, db)
}

func answerOK(a ipaddr.Addr, got lookupBody, db *hitlistdb.DB) bool {
	rec, found := db.Lookup(a)
	var protos []string
	for _, p := range rec.Protocols() {
		protos = append(protos, p.String())
	}
	aliasName := ""
	if p, ok := db.AliasContaining(a); ok {
		aliasName = p.String()
	}
	return got.Found == found && got.Responsive == (found && rec.Responsive) &&
		strings.Join(got.Protocols, ",") == strings.Join(protos, ",") && got.Alias == aliasName
}

// windowedP99 is the median over consecutive windows of lookupWindow
// lookups (in due order) of each window's 99th percentile. A single
// scheduler stall moves one window, not the whole run's figure.
func windowedP99(lat []float64) float64 {
	var p99s []float64
	for i := 0; i < len(lat); i += lookupWindow {
		p99s = append(p99s, quantile(lat[i:min(i+lookupWindow, len(lat))], 0.99))
	}
	return median(p99s)
}

// reportsDigest digests the first n epoch reports, without the two
// fields that depend on timing and on the store's history.
func reportsDigest(reps []longitudinal.EpochReport, n int) string {
	var sb strings.Builder
	for _, r := range reps[:min(n, len(reps))] {
		r.Duration, r.Generation = 0, 0
		fmt.Fprintf(&sb, "%+v\n", r)
	}
	return digest(sb.String())
}

// score counts a phase's operations and output checks and returns the
// epoch durations and lookup latencies (in due order) it measured.
func score(res *result, name string, run hitlistRun) (epochs, lat []float64) {
	// The store starts empty, so epoch i publishes generation i+1.
	for i, rep := range run.reports {
		want := uint64(i + 1)
		res.op(rep.Generation == want && want <= run.gens,
			fmt.Sprintf("epoch %d: generation %d, want %d of %d published", rep.Epoch, rep.Generation, want, run.gens))
		epochs = append(epochs, rep.Duration.Seconds())
	}
	for _, l := range run.lookups {
		res.op(l.ok, fmt.Sprintf("lookup %d of %s: status %d, generation %d, err %v", l.idx, l.addr, l.status, l.body.Generation, l.err))
		lat = append(lat, l.done.Sub(l.due).Seconds())
	}
	res.check(name+".epochs", len(run.reports) >= fixedEpochs, fmt.Sprintf("%d epochs completed, need %d", len(run.reports), fixedEpochs))
	res.check(name+".lookups", len(run.lookups) > 0, "no lookups were sent")
	return epochs, lat
}

func runHitlist(cfg runConfig, res *result) error {
	var setups []float64
	var rig *hitlistRig
	for i := 0; i < hitlistSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newHitlistRig(cfg.seed, filepath.Join(cfg.out, "store"), nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	run, err := rig.run(cfg.seed, cfg.seconds, nil)
	if err != nil {
		return err
	}
	epochs, lat := score(res, "run", run)
	if len(run.reports) >= fixedEpochs {
		checkDigest(cfg, res, "epochs", reportsDigest(run.reports, fixedEpochs))
	}
	res.inputs["universe"] = len(rig.daemon.Universe())
	res.inputs["epochs"] = len(run.reports)
	res.inputs["lookups"] = len(run.lookups)
	res.inputs["lookup_rate"] = lookupRate
	res.inputs["world"] = fmt.Sprintf("seed %d, %d ASes, collect scale %g", worldSeed, hitlistASes, hitlistScale)
	res.samples["setup_s"], res.samples["epoch_s"], res.samples["lookup_s"] = setups, epochs, lat
	res.set("setup_s", median(setups), "s")
	res.set("wall_s", run.wall.Seconds(), "s")
	res.set("epoch_p50_s", quantile(epochs, 0.5), "s")
	res.set("epoch_p90_s", quantile(epochs, 0.9), "s")
	res.set("lookup_p50_ms", 1e3*quantile(lat, 0.5), "ms")
	res.set("lookup_p99_ms", 1e3*windowedP99(lat), "ms")
	res.set("peak_rss_mb", run.rssMB, "MB")
	return nil
}

func tracedHitlist(cfg runConfig, res *result) error {
	zeroLayers(res)
	ecfg := envConfig(cfg.seed, hitlistASes, hitlistScale, 0)
	setupLayers(res, ecfg)
	half := cfg.seconds / 2

	// Untraced phase: the reference for output agreement and overhead.
	rig, err := newHitlistRig(cfg.seed, filepath.Join(cfg.out, "store"), nil)
	if err != nil {
		return err
	}
	ref, err := rig.run(cfg.seed, half, nil)
	if err != nil {
		rig.close()
		return err
	}
	refEpochs, _ := score(res, "untraced", ref)
	rig.close()

	rec := newRecorder()
	if rig, err = newHitlistRig(cfg.seed, filepath.Join(cfg.out, "store"), rec); err != nil {
		return err
	}
	defer rig.close()
	run, err := rig.run(cfg.seed, half, rec)
	if err != nil {
		return err
	}
	epochs, _ := score(res, "traced", run)
	n := min(len(ref.reports), len(run.reports), fixedEpochs)
	res.check("epochs.traced", reportsDigest(ref.reports, n) == reportsDigest(run.reports, n),
		fmt.Sprintf("first %d epoch reports differ between untraced and traced phases", n))
	if len(run.reports) >= fixedEpochs {
		checkDigest(cfg, res, "epochs", reportsDigest(run.reports, fixedEpochs))
	}

	a := analyze(rec.snapshot())
	spanLayers(res, a)

	// Epoch self time: epoch time not covered by the epoch's scans. Scans
	// of the epoch the deadline cut short start after every completed
	// epoch's time has elapsed, and are left out.
	var epochTotal time.Duration
	probed, saved, eligible := 0, 0, 0
	for _, rep := range run.reports {
		epochTotal += rep.Duration
		probed += rep.Probed
		saved += rep.Saved
		eligible += rep.Eligible
	}
	var scans []span
	for _, s := range a.spans {
		if s.Name == "scanner.scan" && time.Duration(s.Start) < run.start+epochTotal {
			scans = append(scans, s)
		}
	}
	scanTime := covered(scans, -1<<62, 1<<62)
	res.set("longitudinal.epoch_self_s", ratio((epochTotal-scanTime).Seconds(), float64(len(run.reports))), "s")
	res.set("longitudinal.probed", float64(probed), "count")
	res.set("longitudinal.saved_ratio", ratio(float64(saved), float64(eligible)), "ratio")
	res.set("hitlistdb.generations", float64(run.gens), "count")
	res.set("hitlistdb.snapshot_bytes", float64(run.bytes), "bytes")

	h := a.get("serve.handler")
	handler := map[int64]time.Duration{}
	for _, s := range a.spans {
		if s.Name == "serve.handler" {
			handler[s.N] = s.dur()
		}
	}
	var overhead, late []float64
	for _, l := range run.lookups {
		if d, ok := handler[int64(l.idx)]; ok {
			overhead = append(overhead, (l.done.Sub(l.sent) - d).Seconds())
		}
		late = append(late, l.late.Seconds())
	}
	res.set("serve.requests", float64(h.count), "count")
	res.set("serve.handler_p50_us", 1e6*quantile(h.durs, 0.5), "us")
	res.set("serve.handler_p99_us", 1e6*quantile(h.durs, 0.99), "us")
	res.set("serve.http_p50_us", 1e6*quantile(overhead, 0.5), "us")
	res.set("loadgen.sent", float64(len(run.lookups)), "count")
	res.set("loadgen.late_p99_ms", 1e3*quantile(late, 0.99), "ms")
	res.set("trace.overhead_ratio", ratio(quantile(epochs, 0.5), quantile(refEpochs, 0.5)), "ratio")
	res.inputs["universe"] = len(rig.daemon.Universe())
	res.inputs["epochs"] = len(run.reports)
	res.inputs["lookups"] = len(run.lookups)
	return rec.writeJSONL(tracePath(cfg))
}
