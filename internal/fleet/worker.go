package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/attrib"
	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/simerr"
	"repro/internal/sta"
	"repro/internal/wgen"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// URL is the coordinator's base URL ("http://host:port").
	URL string
	// Name is the worker's stable identity across deaths and rebirths; it
	// keys the coordinator's poison-vs-flaky accounting (default
	// "<hostname>-<pid>").
	Name string
	// Slots bounds concurrently simulated cells (default 1).
	Slots int
	// Chaos drives the client-side network fault injector and the
	// worker-kill point (simulator-level chaos comes from the coordinator
	// via the join handshake, so it cannot skew from the local path).
	Chaos chaos.Config
	// Log receives worker lifecycle events (nil = slog.Default).
	Log *slog.Logger
}

// worker is one joined incarnation's runtime state.
type worker struct {
	cfg    WorkerConfig
	log    *slog.Logger
	client *http.Client
	tr     *Transport
	join   JoinResponse

	genCtx    context.Context
	genCancel context.CancelFunc
	reason    string
	reasonMu  sync.Mutex
}

// RunWorker joins the coordinator at cfg.URL and simulates claimed cells
// until ctx is canceled. Each injected worker-kill (or Rejoin demand from
// the coordinator) ends the current incarnation abruptly — in-flight cells
// are abandoned without a result, so their leases expire — and the worker
// rejoins as a fresh incarnation under the same stable name, modeling
// kill-plus-respawn without leaving the process.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	for gen := 1; ; gen++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := &worker{cfg: cfg, log: cfg.Log.With("worker", cfg.Name, "gen", gen)}
		var inj *chaos.Injector
		if cfg.Chaos.NetEnabled() {
			inj = chaos.New(cfg.Chaos, fmt.Sprintf("%s/gen%d", cfg.Name, gen))
		}
		w.tr = &Transport{In: inj}
		w.client = &http.Client{Transport: w.tr, Timeout: 30 * time.Second}
		w.genCtx, w.genCancel = context.WithCancel(ctx)
		w.run()
		w.genCancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Info("fleet worker incarnation ended, rejoining", "why", w.getReason())
		// A beat before rejoining: long enough that the dead incarnation's
		// leases are clearly someone else's problem, short enough to keep
		// the fleet saturated.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(harness.BackoffDelay(cfg.Name, gen, 100*time.Millisecond, time.Second)):
		}
	}
}

func (w *worker) die(reason string) {
	w.reasonMu.Lock()
	if w.reason == "" {
		w.reason = reason
	}
	w.reasonMu.Unlock()
	w.genCancel()
}

func (w *worker) getReason() string {
	w.reasonMu.Lock()
	defer w.reasonMu.Unlock()
	if w.reason == "" {
		return "context canceled"
	}
	return w.reason
}

// run joins and drives one incarnation's slot loops until death.
func (w *worker) run() {
	for attempt := 0; ; attempt++ {
		var jr JoinResponse
		err := w.post("join", JoinRequest{V: protoVersion, Name: w.cfg.Name, Slots: w.cfg.Slots}, &jr)
		if err == nil {
			w.join = jr
			break
		}
		w.log.Debug("fleet join failed, retrying", "err", err)
		select {
		case <-w.genCtx.Done():
			return
		case <-time.After(harness.BackoffDelay(w.cfg.Name+"|join", attempt, 100*time.Millisecond, 2*time.Second)):
		}
	}
	w.log.Info("fleet worker joined", "id", w.join.Worker, "scale", w.join.Scale,
		"slots", w.cfg.Slots, "attrib", w.join.Attrib)
	var wg sync.WaitGroup
	for s := 0; s < w.cfg.Slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slotLoop(slot)
		}(s)
	}
	wg.Wait()
}

// slotLoop claims and simulates cells until the incarnation dies.
func (w *worker) slotLoop(slot int) {
	poll := time.Duration(w.join.PollMS) * time.Millisecond
	if poll <= 0 {
		poll = 150 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		if w.genCtx.Err() != nil {
			return
		}
		if w.tr.Draw(chaos.PointWorkerKill) {
			// Simulated SIGKILL: abandon every in-flight cell on this
			// incarnation, silently. Leases expire; the coordinator
			// reassigns.
			w.die("injected worker-kill")
			return
		}
		var cr ClaimResponse
		if err := w.post("claim", ClaimRequest{Worker: w.join.Worker}, &cr); err != nil {
			select {
			case <-w.genCtx.Done():
				return
			case <-time.After(harness.BackoffDelay(w.join.Worker+"|claim", attempt, 100*time.Millisecond, 2*time.Second)):
			}
			continue
		}
		if cr.Rejoin {
			w.die("coordinator demanded rejoin")
			return
		}
		if cr.None || cr.Cell == nil {
			select {
			case <-w.genCtx.Done():
				return
			case <-time.After(poll):
			}
			continue
		}
		w.runCell(slot, *cr.Cell, cr.Lease)
	}
}

// runCell simulates one leased cell and delivers its outcome.
func (w *worker) runCell(slot int, cell Cell, lease uint64) {
	log := w.log.With("slot", slot, "bench", cell.Bench, "lease", lease)
	if got := harness.MemoKey(cell.Bench, cell.Cfg); got != cell.Key {
		// A corrupted payload must never be simulated under the wrong
		// identity: refuse it as a classified failure.
		log.Error("fleet cell key mismatch", "want", cell.Key, "got", got)
		w.deliver(cell.Key, lease, nil, nil, simerr.Errorf(simerr.BadProgram, "fleet.worker",
			"memo key mismatch: coordinator sent %q, worker derived %q", cell.Key, got))
		return
	}
	r := harness.NewRunner(cell.Scale)
	r.Workers = w.cfg.Slots
	r.Attrib = w.join.Attrib
	r.AttribTopN = w.join.AttribTopN
	r.Timeout = time.Duration(w.join.TimeoutMS) * time.Millisecond
	r.Chaos = w.join.SimChaos
	if cell.Wgen != "" {
		g, err := wgen.Load(cell.Wgen)
		var p *isa.Program
		if err == nil {
			p, err = g.Program()
		}
		if err != nil {
			w.deliver(cell.Key, lease, nil, nil, simerr.Classify("fleet.worker", err, simerr.BadProgram))
			return
		}
		r.RegisterProgram(cell.Bench, p)
	}
	cellCtx, cellCancel := context.WithCancel(w.genCtx)
	defer cellCancel()
	r.Ctx = cellCtx
	tap := &sta.ProgressTap{}
	r.MakeTap = func(string, string) *sta.ProgressTap { return tap }

	hbDone := make(chan struct{})
	go w.heartbeats(cell.Key, lease, tap, cellCtx, cellCancel, hbDone)

	res, err := r.Result(cell.Bench, cell.Cfg)
	cellCancel()
	<-hbDone

	if w.genCtx.Err() != nil {
		return // killed mid-cell: say nothing, let the lease expire
	}
	if err != nil && simerr.KindOf(err) == simerr.Canceled && cellCtx.Err() != nil {
		log.Info("fleet cell abandoned (lease revoked)")
		return // the coordinator canceled us; the cell belongs to someone else
	}
	var rep *attrib.Report
	if err == nil && w.join.Attrib {
		rep, err = r.AttribReport(cell.Bench, cell.Cfg)
	}
	if err != nil {
		log.Warn("fleet cell failed", "kind", simerr.KindOf(err).String(), "err", err)
	} else {
		log.Info("fleet cell done", "cycles", res.Stats.Cycles)
	}
	w.deliver(cell.Key, lease, res, rep, err)
}

// heartbeats renews the lease until the cell context ends, publishing the
// tap's live cycle count so the coordinator's stall detector sees forward
// progress. A Cancel answer revokes the cell (cancel its context); a
// Rejoin answer kills the incarnation.
func (w *worker) heartbeats(key string, lease uint64, tap *sta.ProgressTap, ctx context.Context, cancel context.CancelFunc, done chan<- struct{}) {
	defer close(done)
	period := time.Duration(w.join.HeartbeatMS) * time.Millisecond
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		cycle, commits := tap.Latest()
		var hr HeartbeatResponse
		err := w.post("heartbeat", HeartbeatRequest{
			Worker: w.join.Worker, Lease: lease, Key: key, Cycle: cycle, Commits: commits,
		}, &hr)
		if err != nil {
			continue // transient; the next beat retries, the lease has slack
		}
		if hr.Rejoin {
			w.die("coordinator demanded rejoin (heartbeat)")
			cancel()
			return
		}
		if hr.Cancel {
			cancel()
			return
		}
	}
}

// deliver posts a cell outcome at-least-once: network failures retry under
// deterministic backoff until acknowledged or the incarnation dies (then
// the lease expires and the cell is reassigned — duplicate deliveries are
// idempotent coordinator-side either way).
func (w *worker) deliver(key string, lease uint64, res *sta.Result, rep *attrib.Report, serr error) {
	req := ResultRequest{Worker: w.join.Worker, Lease: lease, Key: key, Result: res, Attrib: rep}
	if serr != nil {
		req.ErrKind = simerr.KindOf(serr).String()
		req.ErrMsg = serr.Error()
	}
	for attempt := 0; attempt < 15; attempt++ {
		var rr ResultResponse
		err := w.post("result", req, &rr)
		if err == nil {
			if rr.Rejoin {
				w.die("coordinator demanded rejoin (result)")
			}
			return
		}
		select {
		case <-w.genCtx.Done():
			return
		case <-time.After(harness.BackoffDelay(key+"|result", attempt, 100*time.Millisecond, 2*time.Second)):
		}
	}
	w.log.Warn("fleet result delivery abandoned", "key_tag", key)
}

// post sends one JSON exchange through the (possibly chaos-wrapped)
// client. Any transport, status, or decode failure is one error — the
// caller treats them all as transient.
func (w *worker) post(op string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(w.genCtx, http.MethodPost,
		w.cfg.URL+"/fleet/v1/"+op, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return fmt.Errorf("fleet: %s: %s: %s", op, hresp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("fleet: %s: decode: %w", op, err) // truncation lands here
	}
	return nil
}
