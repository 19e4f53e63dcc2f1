package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpushare/internal/checkpoint"
	"gpushare/internal/client"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/server"
	"gpushare/internal/stats"
	"gpushare/internal/wal"
)

var exploreSchedules = flag.Int("explore", 200, "seeded schedules TestExploreLifecycle runs (check.sh -full asks for more)")

// world is one explored system: the real lifecycle core under the real
// coordinator over a real journal — only the scheduler and probe loops
// and the HTTP workers are left out, their effects arriving as the
// explorer's events instead — plus the ledger the properties are checked
// against.
type world struct {
	t    *testing.T
	rng  *rand.Rand
	seed int64
	path string
	c    *Coordinator
	now  time.Time // the only clock the core sees
	log  []string  // the schedule so far, printed on failure

	bound int
	reqs  []*SubmitRequest // every distinct submission made
	// accepted: admitted (202) by some process. delivered: a done or
	// failed result was served for the key by some process. first: the
	// first such result each job of this process served.
	accepted, delivered map[string]bool
	first               map[*server.Job]string
	// stale holds dispatches that have been settled or written off and
	// can still report late (a partitioned worker finishing anyway).
	stale []dispatch
}

type dispatch struct {
	j *fjob
	w *worker
}

func (w *world) failf(format string, args ...any) {
	w.t.Helper()
	for _, line := range w.log {
		w.t.Log(line)
	}
	w.t.Fatalf("seed %d, event %d: %s", w.seed, len(w.log), fmt.Sprintf(format, args...))
}

func (w *world) notef(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// open starts a coordinator process over the journal: no loops, two
// fake workers of two slots each. tear > 0 arms a TornJournal crash on
// that journal append of this process.
func (w *world) open(tear int) {
	owed := w.pending()
	opts := Options{CoreOptions: server.CoreOptions{QueueDepth: w.bound, JournalPath: w.path}}
	if tear > 0 {
		opts.JournalFaults = &fault.Plan{Kind: fault.TornJournal, Nth: tear}
	}
	c := &Coordinator{opts: opts, workers: make(map[string]*worker), q: newFairQueue(), kick: make(chan struct{}, 1)}
	core, err := server.NewCore("gsched", JobDispatched, opts.CoreOptions, c, time.Second)
	if err != nil {
		w.failf("open: %v", err)
	}
	c.Core = core
	for _, id := range []string{"w1", "w2"} {
		c.workers[id] = &worker{id: id, state: WorkerAlive, slots: 2, inflight: make(map[string]*fjob)}
	}
	c.Replay()
	w.c, w.stale, w.first = c, nil, make(map[*server.Job]string)
	// Replay never sheds: everything owed is live again, whatever the
	// bound.
	live := make(map[string]bool)
	for _, j := range c.Jobs() {
		live[j.Key] = !server.Terminal(j.State)
	}
	for key := range owed {
		if !live[key] {
			w.failf("replay dropped %.8s (bound %d, %d owed)", key, w.bound, len(owed))
		}
	}
}

// pending reads the journal as a restart would: accepts without a done.
func (w *world) pending() map[string]bool {
	raw, err := os.ReadFile(w.path)
	if err != nil && !os.IsNotExist(err) {
		w.failf("journal: %v", err)
	}
	owed := make(map[string]bool)
	for sc := bufio.NewScanner(bytes.NewReader(raw)); sc.Scan(); {
		var rec wal.Record
		switch {
		case json.Unmarshal(sc.Bytes(), &rec) != nil: // torn
		case rec.Op == wal.OpAccept:
			owed[rec.Key] = true
		default:
			delete(owed, rec.Key)
		}
	}
	return owed
}

// restart is kill -9 and a new process over what the journal holds.
func (w *world) restart(why string) {
	w.notef("  %s: restart", why)
	w.c.Kill()
	tear := 0
	if w.rng.Intn(3) == 0 {
		tear = 1 + w.rng.Intn(6)
	}
	w.bound = 1 + w.rng.Intn(6) // restarted with another -queue
	w.open(tear)
}

// crashable runs one event; an injected journal tear kills the process.
func (w *world) crashable(event func()) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *checkpoint.CrashPoint:
			w.restart("journal append torn")
		default:
			panic(p) // a real bug, e.g. close of a closed done channel
		}
	}()
	event()
}

func (w *world) submit(req *SubmitRequest) {
	w.c.Mu.Lock()
	before := w.c.Load().Bounded
	w.c.Mu.Unlock()
	out := w.c.Submit(req, w.now)
	switch out.Code {
	case http.StatusAccepted:
		if before >= w.bound {
			w.failf("admitted %.8s with %d jobs against a bound of %d", out.Key, before, w.bound)
		}
		w.accepted[out.Key] = true
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		w.failf("submit answered %d: %v", out.Code, out.Err)
	}
}

func (w *world) newRequest() *SubmitRequest {
	cfg := config.Default()
	cfg.Seed = uint64(len(w.reqs) + 1)
	req := &SubmitRequest{Tenant: []string{"a", "b", "c"}[w.rng.Intn(3)], Priority: w.rng.Intn(3)}
	req.Workload, req.Scale, req.Config = "gaussian", 1, &cfg
	if w.rng.Intn(4) == 0 {
		req.DeadlineMillis = int64(1 + w.rng.Intn(3000))
	}
	w.reqs = append(w.reqs, req)
	return req
}

// start is one iteration of scheduleOnce's loop: the fair queue's next
// job onto the freest worker. The pop must be the oldest queued job of
// its (tenant, priority) class, however often its elders were requeued.
func (w *world) start() {
	c := w.c
	jobs := c.Jobs()
	c.Mu.Lock()
	defer c.Mu.Unlock()
	wk := c.freeWorkerLocked()
	if wk == nil {
		return
	}
	j := c.q.pop(nil)
	if j == nil || j.State != JobQueued {
		return // empty, or a stale entry whose job a late result finished
	}
	for _, other := range jobs {
		f := other.Ext.(*fjob)
		if other.State == JobQueued && f.tenant == j.tenant && f.priority == j.priority && other.Seq < j.Seq {
			w.failf("popped %.8s (seq %d) ahead of %.8s (seq %d) in class (%s, %d)",
				j.Key, j.Seq, other.Key, other.Seq, j.tenant, j.priority)
		}
	}
	w.notef("  %.8s -> %s", j.Key, wk.id)
	c.bindLocked(j, wk, func() {})
}

// inflight lists the dispatches workers hold, in a deterministic order.
func (w *world) inflight() []dispatch {
	var all []dispatch
	for _, id := range sortedKeys(w.c.workers) {
		wk := w.c.workers[id]
		for _, key := range sortedKeys(wk.inflight) {
			all = append(all, dispatch{wk.inflight[key], wk})
		}
	}
	return all
}

// report delivers a worker's answer for one of ds through the settle
// the dispatch goroutine uses. Every report is distinguishable, so "the
// first result is the one served" can be told from "some result is".
func (w *world) report(ds []dispatch, state string) {
	if len(ds) == 0 {
		return
	}
	d := ds[w.rng.Intn(len(ds))]
	// A cancel that comes back after the job's own deadline ends it; one
	// that comes back before (preemption, worker drain) requeues it.
	// (Unless a late result from an earlier dispatch got there first.)
	expired := state == server.StateCanceled && d.j.State == JobDispatched && d.j.worker == d.w.id &&
		!d.j.Deadline.IsZero() && !w.now.Before(d.j.Deadline)
	defer func() {
		if expired && d.j.State != server.StateCanceled {
			w.failf("%.8s was canceled past its deadline and is %s, not canceled", d.j.Key, d.j.State)
		}
	}()
	w.stale = append(w.stale, d)
	st := &server.JobStatus{Key: d.j.Key, State: state, Error: fmt.Sprintf("report %d", len(w.log))}
	if state == server.StateDone {
		st.Stats, st.Error = &stats.GPU{Cycles: int64(len(w.log))}, ""
	}
	w.notef("  %.8s on %s", d.j.Key, d.w.id)
	w.c.settle(d.j, d.w, st, w.now)
}

// step runs one random event.
func (w *world) step() {
	c := w.c
	switch ev := w.rng.Intn(100); {
	case ev < 22:
		req := w.newRequest()
		w.notef("submit tenant=%s prio=%d deadline=%dms", req.Tenant, req.Priority, req.DeadlineMillis)
		w.submit(req)
	case ev < 30 && len(w.reqs) > 0:
		req := w.reqs[w.rng.Intn(len(w.reqs))]
		for _, j := range c.Jobs() { // a canceled entry is transient: re-admit it
			if j.State == server.StateCanceled && w.rng.Intn(2) == 0 {
				req = j.Req.(*SubmitRequest)
			}
		}
		w.notef("resubmit")
		w.submit(req)
	case ev < 52:
		w.notef("start")
		w.start()
	case ev < 64:
		w.notef("worker reports done")
		w.report(w.inflight(), server.StateDone)
	case ev < 68:
		w.notef("worker reports failed")
		w.report(w.inflight(), server.StateFailed)
	case ev < 74:
		w.notef("a settled or written-off dispatch reports done, late")
		w.report(w.stale, server.StateDone)
	case ev < 80:
		ds := w.inflight()
		preempt := w.rng.Intn(2) == 0
		w.notef("worker reports canceled (preemption: %v)", preempt)
		c.Mu.Lock()
		for _, d := range ds {
			d.j.preempting = preempt
		}
		c.Mu.Unlock()
		w.report(ds, server.StateCanceled)
	case ev < 84:
		if ds := w.inflight(); len(ds) > 0 {
			d := ds[w.rng.Intn(len(ds))]
			code := []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable, http.StatusBadRequest}[w.rng.Intn(3)]
			w.notef("dispatch of %.8s to %s answers %d", d.j.Key, d.w.id, code)
			w.stale = append(w.stale, d)
			c.dispatchFailed(d.j, d.w, &client.APIError{StatusCode: code})
		}
	case ev < 88:
		wk := c.workers[[]string{"w1", "w2"}[w.rng.Intn(2)]]
		w.stale = append(w.stale, w.inflight()...)
		c.Mu.Lock()
		if wk.state == WorkerAlive {
			w.notef("lease of %s expires", wk.id)
			c.markDeadLocked(wk)
		} else {
			w.notef("%s revives", wk.id)
			wk.state = WorkerAlive
		}
		c.Mu.Unlock()
	case ev < 94:
		d := time.Duration(w.rng.Intn(2000)) * time.Millisecond
		w.notef("clock +%s", d)
		w.now = w.now.Add(d)
	case ev < 96:
		w.notef("stop admission")
		c.StopAdmission()
	default:
		w.restart("kill -9")
	}
}

// served is what GET /v1/jobs/{key} answers right now.
func (w *world) served(key string) string {
	rr := httptest.NewRecorder()
	w.c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+key, nil))
	return rr.Body.String()
}

// check holds the contract after every event.
func (w *world) check() {
	c := w.c
	owed := w.pending()
	jobs := c.Jobs()
	state := make(map[string]string, len(jobs))
	c.Mu.Lock()
	onQueue := make(map[*fjob]bool)
	for _, t := range c.q.tenants {
		for _, fifo := range t.byPrio {
			for _, f := range fifo {
				onQueue[f] = true
			}
		}
	}
	live := 0
	for _, j := range jobs {
		f := j.Ext.(*fjob)
		state[j.Key] = j.State
		closed := false
		select {
		case <-j.Done():
			closed = true
		default:
		}
		switch {
		case closed != server.Terminal(j.State):
			w.failf("%.8s is %s but done closed = %v", j.Key, j.State, closed)
		case j.State == JobQueued && !onQueue[f]:
			w.failf("%.8s is queued but not on the queue: a lost requeue", j.Key)
		case j.State == JobDispatched && c.workers[f.worker].inflight[j.Key] != f:
			w.failf("%.8s is dispatched to %q, which does not hold it", j.Key, f.worker)
		}
		if !server.Terminal(j.State) {
			live++
		}
	}
	if got := c.LiveLocked(); got != live {
		w.failf("the core counts %d live jobs, the registry holds %d", got, live)
	}
	c.Mu.Unlock()

	for _, j := range jobs {
		if j.State != JobDone && j.State != JobFailed {
			continue
		}
		body := w.served(j.Key)
		if first, ok := w.first[j]; ok && first != body {
			w.failf("%.8s served\n%sthen\n%s: the first terminal result must win", j.Key, first, body)
		}
		w.first[j], w.delivered[j.Key] = body, true
	}
	for key := range w.accepted {
		// Accepted work is owed — pending in the journal — until a done
		// or failed result has been served; canceled is not served.
		switch st := state[key]; {
		case st == JobDone || st == JobFailed:
		case !owed[key] && !w.delivered[key]:
			w.failf("accepted job %.8s (state %q) is neither served nor pending in the journal: lost", key, st)
		case st != "" && !owed[key]:
			w.failf("%.8s is %s but its journal accept is retired", key, st)
		}
	}
}

// TestExploreLifecycle drives the lifecycle core, under the real
// coordinator and over a real journal, through seeded random
// interleavings of submit / duplicate submit / start / finish / fail /
// late duplicate finish / cancel and preempt / failed dispatch / lease
// expiry and revival / deadline expiry / stop-admission / kill -9 and
// restart from the journal (a torn append armed on a third of the
// restarts), and after every event checks: every accepted key is served
// or pending in the journal; done is closed exactly when the job is
// terminal and the first terminal result is the one served; no key is
// retired while queued, dispatched or canceled; admission never exceeds
// the bound and replay never sheds; a requeued job is back on the queue
// and never overtaken within its (tenant, priority) class; the core's
// live count equals a recount of the registry.
func TestExploreLifecycle(t *testing.T) {
	for seed := int64(1); seed <= int64(*exploreSchedules); seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := &world{t: t, rng: rng, seed: seed, path: filepath.Join(t.TempDir(), "journal"),
			now: time.Unix(1_000_000, 0), bound: 2 + rng.Intn(5),
			accepted: map[string]bool{}, delivered: map[string]bool{}}
		w.open(0)
		for i := 0; i < 40; i++ {
			w.crashable(w.step)
			w.check()
		}
		w.c.Kill()
	}
}
