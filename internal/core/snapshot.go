package core

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/behavior"
	"footsteps/internal/clock"
	"footsteps/internal/detection"
	"footsteps/internal/honeypot"
	"footsteps/internal/netsim"
	"footsteps/internal/persistence"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
	"footsteps/internal/socialgraph"
)

// This file is the world-level half of snapshot/restore (the wire
// format and its section code live in internal/persistence; the
// invariant and layout are documented in docs/PERSISTENCE.md).
//
// Snapshot writes every section straight from the live components into
// the caller's buffer: a day boundary is quiescent (the world is
// single-writer), so the tables are read in place, with no copy.
//
// Restore decodes first, constructs second, and commits last. Every
// section is decoded into staged tables, sized from counts the decoder
// has bounded by the input, and checked; a corrupt snapshot fails there,
// before anything is built. The static world — wiring, schedules,
// closures — is then rebuilt by re-running construction and RunAll with
// the same config, exactly as a straight-through run would, minus the
// organic population: its member and pool IDs are reserved rather than
// rebuilt (behavior.ReserveMembers), because the snapshot overwrites
// every profile draw, username and photo post the rebuild would make.
// Everything minted after the population — celebrity and VPN-user IDs,
// the VPN users' logins and sessions, the member list their daily pass
// captures, every scheduler sequence number and RNG draw — comes out as
// in the original construction. The scheduler is fast-forwarded to the
// snapshot instant (dropping the already-fired portion of the
// schedule), the staged tables are committed over the components, and
// the pending dynamic events (delayed enforcements, reciprocal
// reactions, backoff retries) are re-registered from their staged
// lists. From that point the resumed world replays the identical
// timeline.

// Snapshot writes the world's complete mutable state to out as one
// FSNAP2 stream (persistence.Version). Call only at a quiescent instant
// (a day boundary, as RunDays does): no tick may be mid-flight.
//
// A *bytes.Buffer out, as durable.Log.Checkpoint passes, is encoded
// into in place: grown once to the size hint, then written through its
// spare capacity, so the world keeps no copy of the snapshot and a
// buffer reused from one checkpoint to the next is sized by the last
// one. Any other writer is handed the bytes of a buffer used once.
func (w *World) Snapshot(out io.Writer) error {
	b, ok := out.(*bytes.Buffer)
	if !ok {
		b = new(bytes.Buffer)
	}
	b.Grow(snapshotBytesPerAccount * w.Plat.NumAccounts())
	e := persistence.NewEncoder(b.AvailableBuffer())
	persistence.WriteHeader(e, persistence.Header{
		Version:     persistence.Version,
		Seed:        w.Cfg.Seed,
		Fingerprint: w.Cfg.Fingerprint(),
		Day:         w.daysRun,
		Now:         w.Sched.Clock().Now(),
	})
	persistence.WriteBody(e, w.snapshotSource())
	if b.Len() == 0 {
		// The buffer takes the encoder's array as it is: its own when the
		// stream fit, or the one append grew when it did not. Writing the
		// grown stream instead would copy it into a third array, twice
		// the hint.
		*b = *bytes.NewBuffer(e.Bytes())
	} else {
		b.Write(e.Bytes()) // copies nothing when the stream fit
	}
	if !ok {
		_, err := out.Write(b.Bytes())
		return err
	}
	return nil
}

// snapshotBytesPerAccount sizes a snapshot buffer before encoding: a
// 100k-account DefaultConfig world writes ~190 bytes per account. A
// reused buffer that already holds it does not grow again.
const snapshotBytesPerAccount = 192

// snapshotSource lists the world's sections: the live components
// themselves, and the world-owned envelope.
func (w *World) snapshotSource() *persistence.Source {
	src := &persistence.Source{
		Envelope: persistence.Envelope{
			Root:     w.RNG.State(),
			NetAlloc: w.Reg.SnapshotAlloc(),
		},
		Platform:  w.Plat,
		Graph:     w.graph,
		Behavior:  w.Pop,
		Honeypots: w.Honeypots,
	}
	if w.Guard != nil {
		src.Guard = w.Guard
	}
	for _, name := range aas.CatalogNames() {
		if svc, ok := w.Recip[name]; ok {
			src.Recip = append(src.Recip, persistence.Named[persistence.RecipSource]{Name: name, S: svc})
		}
		if svc, ok := w.Coll[name]; ok {
			src.Coll = append(src.Coll, persistence.Named[persistence.CollSource]{Name: name, S: svc})
		}
	}
	src.VPNRNGs = make([]rng.State, len(w.vpnRNGs))
	for i, r := range w.vpnRNGs {
		src.VPNRNGs[i] = r.State()
	}
	if w.crossRNG != nil {
		src.CrossRNG = w.crossRNG.State()
	}
	src.CrossSeen = make([]persistence.ServiceCount, 0, len(w.crossSeen))
	for name, n := range w.crossSeen {
		src.CrossSeen = append(src.CrossSeen, persistence.ServiceCount{Name: name, N: n})
	}
	slices.SortFunc(src.CrossSeen, func(a, b persistence.ServiceCount) int { return cmp.Compare(a.Name, b.Name) })
	return src
}

// staged is a decoded snapshot body, every section checked and none yet
// installed.
type staged struct {
	env   persistence.Envelope
	plat  *platform.Staged
	graph *socialgraph.Staged
	pop   *behavior.Staged
	hp    *honeypot.Staged
	guard *detection.StagedGuard // nil when the snapshot has no guard
	recip []persistence.Named[*aas.StagedRecip]
	coll  []persistence.Named[*aas.StagedColl]
}

// graphSink checks the graph's ID counters against the platform's
// account and post lists before the graph sizes its tables by them:
// every minted account ID has a platform row, and every minted post ID
// is listed by its author's platform row. The platform section precedes
// the graph's on the wire, so its counts are final here.
type graphSink struct {
	*socialgraph.Staged
	plat *platform.Staged
}

func (g graphSink) LoadCounters(nextAcct socialgraph.AccountID, nextPost socialgraph.PostID) error {
	if n, accounts := uint64(nextAcct), g.plat.NumAccounts(); n != uint64(accounts) {
		return fmt.Errorf("account counter %d, but the platform lists %d accounts", n, accounts)
	}
	if n, posts := uint64(nextPost), g.plat.NumPosts(); n > uint64(posts) {
		return fmt.Errorf("post counter %d exceeds the %d posts the platform lists", n, posts)
	}
	return g.Staged.LoadCounters(nextAcct, nextPost)
}

// popSink reserves the staged population's session list before its
// members load: a member holds a session only once it has logged in,
// so the platform's logged-in accounts bound the sessions listed.
type popSink struct {
	*behavior.Staged
	plat *platform.Staged
}

func (p popSink) LoadMembers(hint int) func(*behavior.MemberState) {
	p.ReserveSessions(min(hint, p.plat.NumLoggedIn()))
	return p.Staged.LoadMembers(hint)
}

// decodeBody decodes and checks every section of a snapshot body.
func decodeBody(d *persistence.Decoder, ver uint64) (*staged, error) {
	st := &staged{
		plat:  platform.NewStaged(),
		graph: socialgraph.NewStaged(),
		pop:   behavior.NewStaged(),
		hp:    honeypot.NewStaged(),
	}
	env, err := persistence.ReadBody(d, ver, persistence.Sinks{
		Platform:  st.plat,
		Graph:     graphSink{st.graph, st.plat},
		Behavior:  popSink{st.pop, st.plat},
		Honeypots: st.hp,
		Guard: func() persistence.GuardSink {
			st.guard = detection.NewStagedGuard()
			return st.guard
		},
		Recip: func(name string) persistence.RecipSink {
			s := &aas.StagedRecip{}
			st.recip = append(st.recip, persistence.Named[*aas.StagedRecip]{Name: name, S: s})
			return s
		},
		Coll: func(name string) persistence.CollSink {
			s := &aas.StagedColl{}
			st.coll = append(st.coll, persistence.Named[*aas.StagedColl]{Name: name, S: s})
			return s
		},
	})
	if err != nil {
		return nil, err
	}
	st.env = env
	return st, nil
}

// fits checks the staged body against the world rebuilt to hold it, at
// the snapshot instant now: the members its construction reserved, its
// services and guard, its VPN-user streams, and a schedule that only
// moves forward. Nothing is committed until it passes, and what passes
// re-snapshots to the bytes it was decoded from.
func (st *staged) fits(w *World, now time.Time) error {
	if err := w.Pop.Matches(st.pop); err != nil {
		return &persistence.StateError{Component: "behavior", Err: err}
	}
	if err := st.hp.Registered(st.plat.NumAccounts()); err != nil {
		return &persistence.StateError{Component: "honeypot", Err: err}
	}
	var recip, coll []string
	for _, name := range w.ServiceNames() {
		if _, ok := w.Recip[name]; ok {
			recip = append(recip, name)
		} else {
			coll = append(coll, name)
		}
	}
	if !sameNames(st.recip, recip) || !sameNames(st.coll, coll) {
		return &persistence.StateError{Component: "aas", Err: fmt.Errorf("snapshot services differ from this config's %v", w.ServiceNames())}
	}
	if (st.guard != nil) != (w.Guard != nil) {
		return &persistence.StateError{Component: "guard", Err: fmt.Errorf("snapshot and config disagree on the IP volume guard")}
	}
	if len(st.env.VPNRNGs) != len(w.vpnRNGs) {
		return &persistence.StateError{Component: "world", Err: fmt.Errorf("snapshot has %d VPN-user streams, this config builds %d", len(st.env.VPNRNGs), len(w.vpnRNGs))}
	}
	if !snaprow.Sorted(st.env.NetAlloc, func(a *netsim.AllocState) netsim.ASN { return a.ASN }) ||
		!snaprow.Sorted(st.env.CrossSeen, func(sc *persistence.ServiceCount) string { return sc.Name }) {
		return &persistence.StateError{Component: "world", Err: fmt.Errorf("address allocators or cross-enrollment cursors are not sorted")}
	}
	if start := w.Sched.Clock().Now(); now.Before(start) {
		return &persistence.StateError{Component: "world", Err: fmt.Errorf("snapshot instant %v precedes the world's start %v", now, start)}
	}
	due := func(component string, at time.Time) error {
		if at.Before(now) {
			return &persistence.StateError{Component: component, Err: fmt.Errorf("pending event due %v, before the snapshot instant %v", at, now)}
		}
		return nil
	}
	for _, e := range st.plat.Pending() {
		if err := due("platform", e.Due); err != nil {
			return err
		}
	}
	for _, r := range st.pop.Pending() {
		if err := due("behavior", r.Due); err != nil {
			return err
		}
	}
	for _, nr := range st.recip {
		for _, r := range nr.S.Pending() {
			if err := due("aas", r.Due); err != nil {
				return err
			}
		}
	}
	for _, nc := range st.coll {
		for _, r := range nc.S.Pending() {
			if err := due("aas", r.Due); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameNames reports whether a staged service list names exactly the
// services in names, in that order.
func sameNames[S any](staged []persistence.Named[S], names []string) bool {
	if len(staged) != len(names) {
		return false
	}
	for i, n := range staged {
		if n.Name != names[i] {
			return false
		}
	}
	return true
}

// commit installs every staged section, then re-registers the pending
// dynamic events in their original per-component scheduling order —
// the only schedule entries that did not come from construction. The
// scheduler must sit at the snapshot instant.
func (st *staged) commit(w *World) {
	w.RNG.SetState(st.env.Root)
	w.Reg.RestoreAlloc(st.env.NetAlloc)
	w.Plat.Commit(st.plat)
	w.graph.Commit(st.graph)
	w.Pop.Commit(st.pop)
	w.Honeypots.Commit(st.hp)
	if st.guard != nil {
		w.Guard.CommitGuard(st.guard)
	}
	for _, nr := range st.recip {
		w.Recip[nr.Name].Commit(nr.S)
	}
	for _, nc := range st.coll {
		w.Coll[nc.Name].Commit(nc.S)
	}
	for i, s := range st.env.VPNRNGs {
		w.vpnRNGs[i].SetState(s)
	}
	if w.crossRNG != nil {
		// Overwrite in place: the daily pass closure holds this pointer.
		w.crossRNG.SetState(st.env.CrossRNG)
	}
	clear(w.crossSeen)
	for _, sc := range st.env.CrossSeen {
		w.crossSeen[sc.Name] = sc.N
	}

	w.Plat.RestoreEnforcements(st.plat.Pending())
	w.Pop.RestoreReactions(st.pop.Pending())
	for _, nr := range st.recip {
		w.Recip[nr.Name].RestoreRetries(nr.S.Pending())
	}
	for _, nc := range st.coll {
		w.Coll[nc.Name].RestoreRetries(nc.S.Pending())
	}
}

// RestoreWorld rebuilds a world from a snapshot written by Snapshot. The
// config must describe the same semantic world: the snapshot's seed and
// config fingerprint are checked against cfg and a *persistence.
// MismatchError is returned on disagreement. Observability knobs
// (Telemetry, Trace) are free to differ — the restored timeline is
// byte-identical regardless. Malformed
// bytes yield a *persistence.TruncatedError, and a snapshot whose
// contents break a structural invariant (duplicate, descending or
// out-of-range IDs, a member list or service set this config does not
// build) a *persistence.StateError. Either way no world is built.
//
// The returned world sits at the snapshot instant with lifecycle
// schedules live (RunAll has been applied); drive it with RunDays. No
// event writer is attached: attach one to Plat.Log() before running if
// the resumed stream should be recorded.
func RestoreWorld(cfg Config, r io.Reader) (*World, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	d := persistence.NewDecoder(data)
	h, err := persistence.ReadHeader(d)
	if err != nil {
		return nil, err
	}
	if h.Seed != cfg.Seed {
		return nil, &persistence.MismatchError{Field: "seed", Got: h.Seed, Want: cfg.Seed}
	}
	if fp := cfg.Fingerprint(); h.Fingerprint != fp {
		return nil, &persistence.MismatchError{Field: "config fingerprint", Got: h.Fingerprint, Want: fp}
	}
	st, err := decodeBody(d, h.Version)
	if err != nil {
		return nil, err
	}

	// Rebuild the static structure as the original run did, reserving
	// the population instead of drawing it. The events construction
	// emits (the VPN users' logins) reach no recorder — nothing is
	// attached yet — and the only construction-time log subscriber,
	// honeypot monitoring, has its counters overwritten by the commit.
	w := newWorld(cfg, true)
	w.RunAll()
	if err := st.fits(w, h.Now); err != nil {
		return nil, err
	}
	w.Sched.FastForward(h.Now)
	w.daysRun = h.Day
	st.commit(w)
	return w, nil
}

// readAll returns all of r. A reader that can tell how much it holds —
// a bytes.Reader, bytes.Buffer or strings.Reader by Len, a file by
// Stat — is read into one buffer sized up front; any other regrows as
// it reads.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	switch v := r.(type) {
	case interface{ Len() int }:
		buf.Grow(v.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// RestoreFile is RestoreWorld over a checkpoint file on disk.
func RestoreFile(cfg Config, path string) (*World, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return RestoreWorld(cfg, f)
}

// RunDays advances the world n simulated days, one day per RunFor call
// (chunked runs replay the same timeline as one long run).
func (w *World) RunDays(n int) error { return w.RunDaysFunc(n, nil) }

// RunDaysFunc is RunDays with an after-day hook: after each completed
// day it calls after with the total days run so far. A non-nil error
// stops the run and is returned — the record command uses this to write
// periodic checkpoints, and the durable log to checkpoint at day
// boundaries and to halt cleanly when its filesystem has failed.
func (w *World) RunDaysFunc(n int, after func(day int) error) error {
	for i := 0; i < n; i++ {
		w.Sched.RunFor(clock.Day)
		w.daysRun++
		if after != nil {
			if err := after(w.daysRun); err != nil {
				return err
			}
		}
	}
	return nil
}

// DaysRun reports how many whole days RunDays has completed.
func (w *World) DaysRun() int { return w.daysRun }

// SnapshotInstant reports the simulated instant a snapshot taken now
// would carry — the restore target for suffix comparisons.
func (w *World) SnapshotInstant() time.Time { return w.Sched.Clock().Now() }
