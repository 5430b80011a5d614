package persistence

import (
	"io"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/behavior"
	"footsteps/internal/detection"
	"footsteps/internal/honeypot"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/snaprow"
	"footsteps/internal/socialgraph"
)

// Header identifies a snapshot: the format version, the seed and config
// fingerprint of the world that wrote it, and the day/instant cursor at
// which it was taken. Restore refuses a header whose version, seed, or
// fingerprint does not match the target config (MismatchError).
type Header struct {
	Version     uint64
	Seed        uint64
	Fingerprint uint64
	Day         int
	Now         time.Time
}

// Envelope is the world-owned part of a snapshot body: the root and
// VPN-user streams, the address allocators and the cross-enrollment
// cursors. Everything else lives in a component section.
type Envelope struct {
	Root      rng.State
	NetAlloc  []netsim.AllocState
	VPNRNGs   []rng.State
	CrossRNG  rng.State
	CrossSeen []ServiceCount // sorted by name
}

// ServiceCount is one cross-enrollment cursor.
type ServiceCount struct {
	Name string
	N    int
}

// The section sources: what each component section is written from.
// Big lists stream as rows; a Header method returns the section's
// scalars and short lists, with its row lists left empty.
type (
	PlatformSource interface {
		SnapshotCounters() (nextPost, logSeq uint64)
		AccountRows() snaprow.Rows[platform.AccountState]
		LimiterRows() snaprow.Rows[platform.LimiterState]
		TagRows() snaprow.Rows[platform.TagState]
		EnforcementRows() snaprow.Rows[platform.EnforcementState]
	}
	GraphSource interface {
		SnapshotCounters() (socialgraph.AccountID, socialgraph.PostID)
		AccountRows() snaprow.Rows[socialgraph.AccountState]
		PostRows() snaprow.Rows[socialgraph.PostState]
	}
	BehaviorSource interface {
		Header() behavior.State
		MemberRows() snaprow.Rows[behavior.MemberState]
		ReactionRows() snaprow.Rows[behavior.ReactionState]
	}
	HoneypotSource interface {
		Header() honeypot.State
		AccountRows() snaprow.Rows[honeypot.AccountState]
	}
	GuardSource interface {
		WindowRows() snaprow.Rows[detection.IPWindowState]
		ThrottledRows() snaprow.Rows[detection.ClientCount]
	}
	RecipSource interface {
		Header() aas.ReciprocityState
		CustomerRows() snaprow.Rows[aas.CustomerState]
		RetryRows() snaprow.Rows[aas.RetryState]
	}
	CollSource interface {
		Header() aas.CollusionState
		CustomerRows() snaprow.Rows[aas.CustomerState]
		RetryRows() snaprow.Rows[aas.RetryState]
	}
)

// The section sinks: what each decoded section is loaded into. Row
// lists arrive through the Load methods (snaprow.Loader) in wire order;
// Finish delivers the section's scalars and short lists and reports
// whether the section breaks an invariant of the component — a non-nil
// error becomes a *StateError naming the component.
type (
	PlatformSink interface {
		LoadAccounts(hint int) func(*platform.AccountState)
		LoadLimiters(hint int) func(*platform.LimiterState)
		LoadTags(hint int) func(*platform.TagState)
		LoadEnforcements(hint int) func(*platform.EnforcementState)
		Finish(nextPost, logSeq uint64) error
	}
	GraphSink interface {
		// LoadCounters runs before any row: the graph sizes its tables
		// by its counters, so it must check them first.
		LoadCounters(socialgraph.AccountID, socialgraph.PostID) error
		LoadAccounts(hint int) func(*socialgraph.AccountState)
		LoadPosts(hint int) func(*socialgraph.PostState)
		Finish() error
	}
	BehaviorSink interface {
		LoadMembers(hint int) func(*behavior.MemberState)
		LoadReactions(hint int) func(*behavior.ReactionState)
		Finish(*behavior.State) error
	}
	HoneypotSink interface {
		LoadAccounts(hint int) func(*honeypot.AccountState)
		Finish(*honeypot.State) error
	}
	GuardSink interface {
		LoadWindows(hint int) func(*detection.IPWindowState)
		LoadThrottled(hint int) func(*detection.ClientCount)
		Finish() error
	}
	RecipSink interface {
		LoadCustomers(hint int) func(*aas.CustomerState)
		LoadRetries(hint int) func(*aas.RetryState)
		Finish(*aas.ReciprocityState) error
	}
	CollSink interface {
		LoadCustomers(hint int) func(*aas.CustomerState)
		LoadRetries(hint int) func(*aas.RetryState)
		Finish(*aas.CollusionState) error
	}
)

// Source is a whole snapshot body to write: the envelope and one
// source per component section. Services are listed in registration
// (catalog) order.
type Source struct {
	Envelope
	Platform  PlatformSource
	Graph     GraphSource
	Behavior  BehaviorSource
	Honeypots HoneypotSource
	Guard     GuardSource // nil when no guard is installed
	Recip     []Named[RecipSource]
	Coll      []Named[CollSource]
}

// Named keys a service section by its service name, so restore routes
// it to the right engine whatever the registration order.
type Named[T any] struct {
	Name string
	S    T
}

// Sinks routes each decoded section to where it is loaded. Guard is
// called only when the snapshot holds a guard section, Recip and Coll
// once per service section, with its name; a nil Guard result decodes
// the section and drops it.
type Sinks struct {
	Platform  PlatformSink
	Graph     GraphSink
	Behavior  BehaviorSink
	Honeypots HoneypotSink
	Guard     func() GuardSink
	Recip     func(name string) RecipSink
	Coll      func(name string) CollSink
}

// WriteHeader appends the magic and header.
func WriteHeader(e *Encoder, h Header) {
	e.Raw(magic)
	e.U64(h.Version)
	e.U64(h.Seed)
	e.U64(h.Fingerprint)
	e.Int(h.Day)
	e.Time(h.Now)
}

// ReadHeader consumes the magic and header. It rejects bad magic
// (ErrBadMagic), a header version that disagrees with the magic
// (MismatchError), and a truncated header (TruncatedError).
func ReadHeader(d *Decoder) (Header, error) {
	wire := d.Magic()
	var h Header
	h.Version = d.U64()
	h.Seed = d.U64()
	h.Fingerprint = d.U64()
	h.Day = d.Int()
	h.Now = d.Time()
	if err := d.Err(); err != nil {
		return Header{}, err
	}
	if h.Version != wire {
		return h, &MismatchError{Field: "format version", Got: h.Version, Want: wire}
	}
	return h, nil
}

// WriteBody appends a snapshot body: the envelope and every section, in
// wire order.
func WriteBody(e *Encoder, src *Source) {
	e.RNG(src.Root)
	encSlice(e, src.NetAlloc, encAlloc)
	encPlatform(e, src.Platform)
	encGraph(e, src.Graph)
	encBehavior(e, src.Behavior)
	encHoneypots(e, src.Honeypots)
	e.Bool(src.Guard != nil)
	if src.Guard != nil {
		encGuard(e, src.Guard)
	}
	encSlice(e, src.Recip, func(e *Encoder, n *Named[RecipSource]) {
		e.Str(n.Name)
		encRecip(e, n.S)
	})
	encSlice(e, src.Coll, func(e *Encoder, n *Named[CollSource]) {
		e.Str(n.Name)
		encColl(e, n.S)
	})
	encRNGs(e, src.VPNRNGs)
	e.RNG(src.CrossRNG)
	encSlice(e, src.CrossSeen, func(e *Encoder, sc *ServiceCount) {
		e.Str(sc.Name)
		e.Int(sc.N)
	})
}

// ReadBody decodes a snapshot body of wire version ver into sinks,
// section by section, and returns its envelope. It fails with the
// decoder's TruncatedError on malformed bytes (trailing bytes
// included), or with a *StateError when a sink rejects its section.
// Whatever the input, it never panics.
func ReadBody(d *Decoder, ver uint64, s Sinks) (Envelope, error) {
	var env Envelope
	env.Root = d.RNG()
	env.NetAlloc = decSlice(d, 2, nil, decAlloc)
	if err := decPlatform(d, s.Platform); err != nil {
		return env, err
	}
	if err := decGraph(d, ver, s.Graph); err != nil {
		return env, err
	}
	if err := decBehavior(d, s.Behavior); err != nil {
		return env, err
	}
	if err := decHoneypots(d, s.Honeypots); err != nil {
		return env, err
	}
	if d.Bool() {
		var g GuardSink = &detection.IPVolumeGuardState{}
		if s.Guard != nil {
			if sg := s.Guard(); sg != nil {
				g = sg
			}
		}
		if err := decGuard(d, g); err != nil {
			return env, err
		}
	}
	if err := decNamed(d, s.Recip, decRecip); err != nil {
		return env, err
	}
	if err := decNamed(d, s.Coll, decColl); err != nil {
		return env, err
	}
	env.VPNRNGs = decSlice(d, 40, nil, func(d *Decoder, st *rng.State) { *st = d.RNG() })
	env.CrossRNG = d.RNG()
	env.CrossSeen = decSlice(d, 2, nil, func(d *Decoder, sc *ServiceCount) {
		sc.Name = d.Str()
		sc.N = d.Int()
	})
	return env, d.Done()
}

// decNamed decodes a list of named service sections, routing each by
// name.
func decNamed[S any](d *Decoder, route func(string) S, dec func(*Decoder, S) error) error {
	n := d.Count()
	for i := 0; i < n && d.err == nil; i++ {
		name := d.Str()
		if d.err != nil {
			break
		}
		if err := dec(d, route(name)); err != nil {
			return err
		}
	}
	return d.err
}

// finish closes a section: a decoding failure wins, then the sink's
// verdict, as a StateError naming the component.
func finish(d *Decoder, component string, check func() error) error {
	if d.err != nil {
		return d.err
	}
	if err := check(); err != nil {
		if _, ok := err.(*StateError); ok {
			return err
		}
		return &StateError{Component: component, Err: err}
	}
	return nil
}

// --- list helpers ---

func encSlice[T any](e *Encoder, xs []T, enc func(*Encoder, *T)) {
	e.U64(uint64(len(xs)))
	for i := range xs {
		enc(e, &xs[i])
	}
}

// decSlice decodes a list, each element in place. With l set the list
// is cut from l's shared arrays (see lists); with l nil it gets an array
// of its own, sized to the list.
func decSlice[T any](d *Decoder, minRow int, l *lists[T], dec func(*Decoder, *T)) []T {
	n, hint := d.Rows(minRow)
	if n == 0 {
		return nil
	}
	xs := l.take(d, hint)
	var zero T
	for i := 0; i < n && d.err == nil; i++ {
		xs = append(xs, zero)
		dec(d, &xs[len(xs)-1])
	}
	return l.keep(xs)
}

// lists cuts one section's per-row lists from shared arrays, so
// decoding the section allocates once per array rather than once per
// row. Each list is capped at its own length, xs[i:j:j], so an append
// to one row later reallocates that row alone, never a neighbour. A nil
// *lists gives each list an array of its own, for a section's one-off
// lists.
type lists[T any] struct {
	free []T // the current array's unused tail
	n    int // the room take last handed out
}

// listChunk is how many elements a new shared array holds, unless the
// input left could not hold as many or one list needs more.
const listChunk = 8192

// take returns an empty list with room for n elements, where n is a
// capacity hint the decoder has bounded by the input. A list that
// outgrows it, which only a lying count can make, reallocates on its
// own rather than run into the array's next list.
func (l *lists[T]) take(d *Decoder, n int) []T {
	if l == nil {
		return make([]T, 0, n)
	}
	if len(l.free) < n {
		l.free = make([]T, max(n, min(listChunk, len(d.data)-d.off)))
	}
	l.n = n
	return l.free[:0:n]
}

// keep closes the list take handed out, filled as xs, and returns it
// capped at its length.
func (l *lists[T]) keep(xs []T) []T {
	if l != nil {
		l.free = l.free[min(len(xs), l.n):]
	}
	return xs[:len(xs):len(xs)]
}

// encRows writes a counted row sequence.
func encRows[T any](e *Encoder, rows snaprow.Rows[T], enc func(*Encoder, *T)) {
	if rows.Each == nil {
		encSlice(e, rows.Slice, enc)
		return
	}
	e.U64(uint64(rows.N))
	start := e.rows
	rows.Each(func(x *T) {
		e.rows++
		enc(e, x)
	})
	if e.rows-start != rows.N {
		panic("persistence: a row source yielded a different number of rows than it counted")
	}
}

// decRows decodes a list into a loader. Every row is decoded into one
// value, reset before each row, so the loader must copy the row it is
// handed; the row's slices and strings are its own, cut from shared
// arrays, and the loader may keep them. A row is handed over only if it
// decoded cleanly.
func decRows[T any](d *Decoder, minRow int, load snaprow.Loader[T], dec func(*Decoder, *T)) {
	n, hint := d.Rows(minRow)
	if d.err != nil {
		return
	}
	add := load(hint)
	var x, zero T
	for i := 0; i < n && d.err == nil; i++ {
		x = zero
		dec(d, &x)
		if d.err == nil {
			add(&x)
		}
	}
}

func encU64s[T ~uint64](e *Encoder, xs []T) {
	e.U64(uint64(len(xs)))
	for _, x := range xs {
		e.U64(uint64(x))
	}
}

// encU64sDelta encodes a sorted list as its first value followed by
// gaps. Graph adjacency dominates a large-world snapshot, and dense
// sequential IDs make most gaps single-byte varints where the absolute
// IDs grow to four or five bytes. Only ever applied to lists the
// snapshot contract keeps sorted; an unsorted list is a writer bug.
func encU64sDelta[T ~uint64](e *Encoder, xs []T) {
	e.U64(uint64(len(xs)))
	prev := uint64(0)
	for _, x := range xs {
		v := uint64(x)
		if v < prev {
			panic("persistence: delta-encoding an unsorted list")
		}
		e.U64(v - prev)
		prev = v
	}
}

func decU64sDelta[T ~uint64](d *Decoder, l *lists[T]) []T {
	n, hint := d.Rows(1)
	if n == 0 {
		return nil
	}
	xs := l.take(d, hint)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v := prev + d.U64()
		if d.err != nil {
			break
		}
		if v < prev {
			d.fail("delta list overflows uint64")
			break
		}
		xs = append(xs, T(v))
		prev = v
	}
	return l.keep(xs)
}

func decU64s[T ~uint64](d *Decoder, l *lists[T]) []T {
	n, hint := d.Rows(1)
	if n == 0 {
		return nil
	}
	xs := l.take(d, hint)
	for i := 0; i < n; i++ {
		v := d.U64()
		if d.err != nil {
			break
		}
		xs = append(xs, T(v))
	}
	return l.keep(xs)
}

func encInts[T ~int](e *Encoder, xs []T) {
	e.U64(uint64(len(xs)))
	for _, x := range xs {
		e.Int(int(x))
	}
}

func decInts[T ~int](d *Decoder) []T {
	return decSlice(d, 1, nil, func(d *Decoder, x *T) { *x = T(d.Int()) })
}

func encStrs(e *Encoder, xs []string) {
	e.U64(uint64(len(xs)))
	for _, s := range xs {
		e.Str(s)
	}
}

func decStrs(d *Decoder) []string {
	return decSlice(d, 1, nil, func(d *Decoder, s *string) { *s = d.Str() })
}

func encRNGs(e *Encoder, xs []rng.State) {
	e.U64(uint64(len(xs)))
	for _, st := range xs {
		e.RNG(st)
	}
}

// --- netsim ---

func encAlloc(e *Encoder, a *netsim.AllocState) {
	e.U64(uint64(a.ASN))
	e.U64(uint64(a.Next))
}

func decAlloc(d *Decoder, a *netsim.AllocState) {
	a.ASN = netsim.ASN(d.U64())
	a.Next = uint32(d.U64())
}

// --- platform ---

func encSession(e *Encoder, s *platform.SessionState) {
	e.Bool(s.Present)
	if !s.Present {
		return
	}
	e.U64(uint64(s.ID))
	e.U64(s.Epoch)
	e.Addr(s.IP)
	e.Str(s.Fingerprint)
	e.Int(int(s.API))
}

func decSession(d *Decoder, s *platform.SessionState) {
	s.Present = d.Bool()
	if !s.Present {
		return
	}
	s.ID = platform.AccountID(d.U64())
	s.Epoch = d.U64()
	s.IP = d.Addr()
	s.Fingerprint = d.Str()
	s.API = platform.APIKind(d.Int())
}

func encPlatform(e *Encoder, src PlatformSource) {
	nextPost, logSeq := src.SnapshotCounters()
	e.U64(nextPost)
	e.U64(logSeq)
	encRows(e, src.AccountRows(), func(e *Encoder, a *platform.AccountState) {
		e.U64(uint64(a.ID))
		e.Str(a.Username)
		e.Str(a.Password)
		e.Int(a.Profile.PhotoCount)
		e.Bool(a.Profile.HasProfilePic)
		e.Bool(a.Profile.HasBio)
		e.Bool(a.Profile.HasName)
		e.Str(a.HomeCountry)
		e.Time(a.Created)
		e.Bool(a.Deleted)
		e.U64(a.SessionEpoch)
		encSlice(e, a.LoginCountries, func(e *Encoder, cc *platform.CountryCount) {
			e.Str(cc.Country)
			e.Int(cc.N)
		})
		encU64s(e, a.Posts)
		encSlice(e, a.LikeCounts, func(e *Encoder, pc *platform.PostCount) {
			e.U64(uint64(pc.Post))
			e.Int(pc.N)
		})
	})
	encRows(e, src.LimiterRows(), func(e *Encoder, l *platform.LimiterState) {
		e.U64(uint64(l.ID))
		e.I64(l.Hour)
		e.Int(l.Count)
	})
	encRows(e, src.TagRows(), func(e *Encoder, t *platform.TagState) {
		e.Str(t.Tag)
		encU64s(e, t.Posts)
	})
	encRows(e, src.EnforcementRows(), func(e *Encoder, en *platform.EnforcementState) {
		e.U64(uint64(en.From))
		e.U64(uint64(en.To))
		e.Time(en.Due)
	})
}

func decPlatform(d *Decoder, s PlatformSink) error {
	nextPost := d.U64()
	logSeq := d.U64()
	var logins lists[platform.CountryCount]
	var posts lists[platform.PostID]
	var likes lists[platform.PostCount]
	// An account row is at least 14 bytes: ID, two string lengths, the
	// photo count, three flags, the country length, the creation time,
	// the deleted flag, the session epoch and three list counts.
	decRows(d, 14, s.LoadAccounts, func(d *Decoder, a *platform.AccountState) {
		a.ID = platform.AccountID(d.U64())
		a.Username = d.Str()
		a.Password = d.Str()
		a.Profile.PhotoCount = d.Int()
		a.Profile.HasProfilePic = d.Bool()
		a.Profile.HasBio = d.Bool()
		a.Profile.HasName = d.Bool()
		a.HomeCountry = d.Str()
		a.Created = d.Time()
		a.Deleted = d.Bool()
		a.SessionEpoch = d.U64()
		a.LoginCountries = decSlice(d, 2, &logins, func(d *Decoder, cc *platform.CountryCount) {
			cc.Country = d.Str()
			cc.N = d.Int()
		})
		a.Posts = decU64s(d, &posts)
		a.LikeCounts = decSlice(d, 2, &likes, func(d *Decoder, pc *platform.PostCount) {
			pc.Post = platform.PostID(d.U64())
			pc.N = d.Int()
		})
	})
	decRows(d, 3, s.LoadLimiters, func(d *Decoder, l *platform.LimiterState) {
		l.ID = platform.AccountID(d.U64())
		l.Hour = d.I64()
		l.Count = d.Int()
	})
	decRows(d, 2, s.LoadTags, func(d *Decoder, t *platform.TagState) {
		t.Tag = d.Str()
		t.Posts = decU64s(d, &posts)
	})
	decRows(d, 3, s.LoadEnforcements, func(d *Decoder, en *platform.EnforcementState) {
		en.From = platform.AccountID(d.U64())
		en.To = platform.AccountID(d.U64())
		en.Due = d.Time()
	})
	return finish(d, "platform", func() error { return s.Finish(nextPost, logSeq) })
}

// --- socialgraph ---

// encGraph always writes the FSNAP2 form: the sorted followee and like
// sets go out delta-encoded. Own-post lists are creation-order, not a
// sorted contract, so they stay absolute.
func encGraph(e *Encoder, src GraphSource) {
	nextAcct, nextPost := src.SnapshotCounters()
	e.U64(uint64(nextAcct))
	e.U64(uint64(nextPost))
	encRows(e, src.AccountRows(), func(e *Encoder, a *socialgraph.AccountState) {
		e.U64(uint64(a.ID))
		e.Time(a.Created)
		encU64sDelta(e, a.Followees)
		encU64s(e, a.Posts)
	})
	encRows(e, src.PostRows(), func(e *Encoder, p *socialgraph.PostState) {
		e.U64(uint64(p.ID))
		e.U64(uint64(p.Author))
		e.Time(p.Created)
		encU64sDelta(e, p.Likes)
		encSlice(e, p.Comments, func(e *Encoder, c *socialgraph.Comment) {
			e.U64(uint64(c.Author))
			e.Str(c.Text)
			e.Time(c.At)
		})
	})
}

// decGraph decodes the graph section. ver selects the sorted-list
// reader — the only wire difference between FSNAP1 and FSNAP2.
func decGraph(d *Decoder, ver uint64, s GraphSink) error {
	decSorted := decU64sDelta[socialgraph.AccountID]
	if ver == VersionV1 {
		decSorted = decU64s[socialgraph.AccountID]
	}
	nextAcct := socialgraph.AccountID(d.U64())
	nextPost := socialgraph.PostID(d.U64())
	if err := finish(d, "graph", func() error { return s.LoadCounters(nextAcct, nextPost) }); err != nil {
		return err
	}
	var ids lists[socialgraph.AccountID]
	var posts lists[socialgraph.PostID]
	var comments lists[socialgraph.Comment]
	decRows(d, 4, s.LoadAccounts, func(d *Decoder, a *socialgraph.AccountState) {
		a.ID = socialgraph.AccountID(d.U64())
		a.Created = d.Time()
		a.Followees = decSorted(d, &ids)
		a.Posts = decU64s(d, &posts)
	})
	decRows(d, 5, s.LoadPosts, func(d *Decoder, p *socialgraph.PostState) {
		p.ID = socialgraph.PostID(d.U64())
		p.Author = socialgraph.AccountID(d.U64())
		p.Created = d.Time()
		p.Likes = decSorted(d, &ids)
		p.Comments = decSlice(d, 3, &comments, func(d *Decoder, c *socialgraph.Comment) {
			c.Author = socialgraph.AccountID(d.U64())
			c.Text = d.Str()
			c.At = d.Time()
		})
	})
	return finish(d, "graph", s.Finish)
}

// --- behavior ---

func encBehavior(e *Encoder, src BehaviorSource) {
	h := src.Header()
	e.RNG(h.RNG)
	e.Int(h.NextName)
	encRows(e, src.MemberRows(), func(e *Encoder, m *behavior.MemberState) {
		e.U64(uint64(m.Profile.ID))
		e.Str(m.Profile.Country)
		e.Int(m.Profile.OutDeg)
		e.Int(m.Profile.InDeg)
		e.F64(m.Profile.LikeToLike)
		e.F64(m.Profile.LikeToFollow)
		e.F64(m.Profile.FollowToFollow)
		e.Str(m.Tag)
		encSession(e, &m.Session)
		e.RNG(m.RNG)
	})
	encU64s(e, h.General)
	encSlice(e, h.Pools, func(e *Encoder, p *behavior.PoolState) {
		e.Str(p.Label)
		encU64s(e, p.IDs)
	})
	encSlice(e, h.Reacted, func(e *Encoder, cc *behavior.ChannelCount) {
		e.Str(cc.Channel)
		e.Int(cc.N)
	})
	encRows(e, src.ReactionRows(), func(e *Encoder, r *behavior.ReactionState) {
		e.U64(uint64(r.Member))
		e.U64(uint64(r.Actor))
		e.Int(int(r.Action))
		e.Str(r.Channel)
		e.Time(r.Due)
	})
}

func decBehavior(d *Decoder, s BehaviorSink) error {
	var h behavior.State
	h.RNG = d.RNG()
	h.NextName = d.Int()
	// A member row is at least 70 bytes: three fixed float64s and an RNG
	// state, plus its varints.
	decRows(d, 70, s.LoadMembers, func(d *Decoder, m *behavior.MemberState) {
		m.Profile.ID = platform.AccountID(d.U64())
		m.Profile.Country = d.Str()
		m.Profile.OutDeg = d.Int()
		m.Profile.InDeg = d.Int()
		m.Profile.LikeToLike = d.F64()
		m.Profile.LikeToFollow = d.F64()
		m.Profile.FollowToFollow = d.F64()
		m.Tag = d.Str()
		decSession(d, &m.Session)
		m.RNG = d.RNG()
	})
	h.General = decU64s[platform.AccountID](d, nil)
	var pools lists[platform.AccountID]
	h.Pools = decSlice(d, 2, nil, func(d *Decoder, p *behavior.PoolState) {
		p.Label = d.Str()
		p.IDs = decU64s(d, &pools)
	})
	h.Reacted = decSlice(d, 2, nil, func(d *Decoder, cc *behavior.ChannelCount) {
		cc.Channel = d.Str()
		cc.N = d.Int()
	})
	decRows(d, 5, s.LoadReactions, func(d *Decoder, r *behavior.ReactionState) {
		r.Member = platform.AccountID(d.U64())
		r.Actor = platform.AccountID(d.U64())
		r.Action = platform.ActionType(d.Int())
		r.Channel = d.Str()
		r.Due = d.Time()
	})
	return finish(d, "behavior", func() error { return s.Finish(&h) })
}

// --- honeypot ---

func encTypeCounts(e *Encoder, xs []honeypot.TypeCount) {
	encSlice(e, xs, func(e *Encoder, tc *honeypot.TypeCount) {
		e.Int(int(tc.Type))
		e.Int(tc.N)
	})
}

func decTypeCounts(d *Decoder) []honeypot.TypeCount {
	return decSlice(d, 2, nil, func(d *Decoder, tc *honeypot.TypeCount) {
		tc.Type = platform.ActionType(d.Int())
		tc.N = d.Int()
	})
}

func encHoneypots(e *Encoder, src HoneypotSource) {
	h := src.Header()
	e.RNG(h.RNG)
	e.Int(h.NextID)
	encU64s(e, h.HighProfile)
	encRows(e, src.AccountRows(), func(e *Encoder, a *honeypot.AccountState) {
		e.U64(uint64(a.ID))
		e.Str(a.Username)
		e.Str(a.Password)
		e.Int(int(a.Kind))
		e.Time(a.Created)
		e.Str(a.EnrolledWith)
		encTypeCounts(e, a.Inbound)
		encTypeCounts(e, a.Outbound)
		encSlice(e, a.InboundDedup, func(e *Encoder, ac *honeypot.ActorCounts) {
			e.U64(uint64(ac.Actor))
			encTypeCounts(e, ac.Counts)
		})
		e.Int(a.Enforcements)
		e.Int(a.Duplicates)
		e.Bool(a.Deleted)
	})
}

func decHoneypots(d *Decoder, s HoneypotSink) error {
	var h honeypot.State
	h.RNG = d.RNG()
	h.NextID = d.Int()
	h.HighProfile = decU64s[platform.AccountID](d, nil)
	decRows(d, 12, s.LoadAccounts, func(d *Decoder, a *honeypot.AccountState) {
		a.ID = platform.AccountID(d.U64())
		a.Username = d.Str()
		a.Password = d.Str()
		a.Kind = honeypot.Kind(d.Int())
		a.Created = d.Time()
		a.EnrolledWith = d.Str()
		a.Inbound = decTypeCounts(d)
		a.Outbound = decTypeCounts(d)
		a.InboundDedup = decSlice(d, 2, nil, func(d *Decoder, ac *honeypot.ActorCounts) {
			ac.Actor = platform.AccountID(d.U64())
			ac.Counts = decTypeCounts(d)
		})
		a.Enforcements = d.Int()
		a.Duplicates = d.Int()
		a.Deleted = d.Bool()
	})
	return finish(d, "honeypot", func() error { return s.Finish(&h) })
}

// --- detection ---

func encGuard(e *Encoder, src GuardSource) {
	encRows(e, src.WindowRows(), func(e *Encoder, w *detection.IPWindowState) {
		e.Addr(w.IP)
		e.I64(w.Day)
		e.Int(w.N)
	})
	encRows(e, src.ThrottledRows(), func(e *Encoder, cc *detection.ClientCount) {
		e.Str(cc.Client)
		e.Int(cc.N)
	})
}

func decGuard(d *Decoder, s GuardSink) error {
	decRows(d, 3, s.LoadWindows, func(d *Decoder, w *detection.IPWindowState) {
		w.IP = d.Addr()
		w.Day = d.I64()
		w.N = d.Int()
	})
	decRows(d, 2, s.LoadThrottled, func(d *Decoder, cc *detection.ClientCount) {
		cc.Client = d.Str()
		cc.N = d.Int()
	})
	return finish(d, "guard", s.Finish)
}

// --- aas ---

func encActionCounts(e *Encoder, xs []aas.ActionCount) {
	encSlice(e, xs, func(e *Encoder, ac *aas.ActionCount) {
		e.Int(int(ac.Action))
		e.Int(ac.N)
	})
}

func decActionCounts(d *Decoder) []aas.ActionCount {
	return decSlice(d, 2, nil, func(d *Decoder, ac *aas.ActionCount) {
		ac.Action = platform.ActionType(d.Int())
		ac.N = d.Int()
	})
}

func encCustomer(e *Encoder, c *aas.CustomerState) {
	e.U64(uint64(c.Account))
	e.Str(c.Username)
	e.Str(c.Password)
	e.Str(c.Country)
	e.Bool(c.Managed)
	encInts(e, c.Wants)
	encStrs(e, c.Hashtags)
	e.Time(c.EnrolledAt)
	e.Bool(c.LongTermIntent)
	e.Time(c.EngagedUntil)
	e.Bool(c.Churned)
	e.Time(c.PaidThrough)
	encSlice(e, c.Payments, func(e *Encoder, p *aas.Payment) {
		e.Time(p.At)
		e.F64(p.Amount)
	})
	e.Bool(c.FirstPaidBeforeStudy)
	e.Int(int(c.Product))
	e.Int(c.Tier)
	encSession(e, &c.Session)
	encSession(e, &c.OwnSession)
	encSlice(e, c.Adapt, func(e *Encoder, a *aas.AdaptState) {
		e.Int(int(a.Action))
		e.F64(a.LearnedCap)
		e.Int(a.TodayCount)
		e.Bool(a.TodayBlocked)
		e.Time(a.BlockedUntil)
		e.Int(a.ProbeWait)
	})
	encSlice(e, c.RecentFollows, func(e *Encoder, u *aas.UnfollowState) {
		e.U64(uint64(u.Target))
		e.Time(u.Due)
	})
	e.Bool(c.UnfollowAfter)
	e.Time(c.LastFreeRequest)
	encActionCounts(e, c.Totals)
	e.RNG(c.RNG)
	e.RNG(c.RelRNG)
	e.Int(c.Breaker.Fails)
	e.Bool(c.Breaker.Tripped)
	e.Time(c.Breaker.OpenUntil)
}

func decCustomer(d *Decoder, c *aas.CustomerState) {
	c.Account = platform.AccountID(d.U64())
	c.Username = d.Str()
	c.Password = d.Str()
	c.Country = d.Str()
	c.Managed = d.Bool()
	c.Wants = decInts[aas.Offering](d)
	c.Hashtags = decStrs(d)
	c.EnrolledAt = d.Time()
	c.LongTermIntent = d.Bool()
	c.EngagedUntil = d.Time()
	c.Churned = d.Bool()
	c.PaidThrough = d.Time()
	c.Payments = decSlice(d, 9, nil, func(d *Decoder, p *aas.Payment) {
		p.At = d.Time()
		p.Amount = d.F64()
	})
	c.FirstPaidBeforeStudy = d.Bool()
	c.Product = aas.PaidProduct(d.Int())
	c.Tier = d.Int()
	decSession(d, &c.Session)
	decSession(d, &c.OwnSession)
	c.Adapt = decSlice(d, 13, nil, func(d *Decoder, a *aas.AdaptState) {
		a.Action = platform.ActionType(d.Int())
		a.LearnedCap = d.F64()
		a.TodayCount = d.Int()
		a.TodayBlocked = d.Bool()
		a.BlockedUntil = d.Time()
		a.ProbeWait = d.Int()
	})
	c.RecentFollows = decSlice(d, 2, nil, func(d *Decoder, u *aas.UnfollowState) {
		u.Target = platform.AccountID(d.U64())
		u.Due = d.Time()
	})
	c.UnfollowAfter = d.Bool()
	c.LastFreeRequest = d.Time()
	c.Totals = decActionCounts(d)
	c.RNG = d.RNG()
	c.RelRNG = d.RNG()
	c.Breaker.Fails = d.Int()
	c.Breaker.Tripped = d.Bool()
	c.Breaker.OpenUntil = d.Time()
}

// A customer row is at least 100 bytes: two fixed RNG states plus its
// varints and flags.
const minCustomerRow = 100

func encRetry(e *Encoder, r *aas.RetryState) {
	e.U64(uint64(r.Customer))
	e.Int(int(r.Action))
	e.U64(uint64(r.Target))
	e.U64(uint64(r.Post))
	e.Str(r.Text)
	encStrs(e, r.Tags)
	e.Int(r.Attempt)
	e.Time(r.Due)
}

func decRetry(d *Decoder, r *aas.RetryState) {
	r.Customer = platform.AccountID(d.U64())
	r.Action = platform.ActionType(d.Int())
	r.Target = platform.AccountID(d.U64())
	r.Post = platform.PostID(d.U64())
	r.Text = d.Str()
	r.Tags = decStrs(d)
	r.Attempt = d.Int()
	r.Due = d.Time()
}

// encBase writes the state both engine kinds share; customers and
// retries stream from their row sources.
func encBase(e *Encoder, b *aas.BaseState, customers snaprow.Rows[aas.CustomerState], retries snaprow.Rows[aas.RetryState]) {
	e.RNG(b.RNG)
	encRows(e, customers, encCustomer)
	e.F64(b.Revenue)
	e.Int(b.AdImpressions)
	e.Bool(b.Stopped)
	encRows(e, retries, encRetry)
}

func decBase(d *Decoder, b *aas.BaseState, customers snaprow.Loader[aas.CustomerState], retries snaprow.Loader[aas.RetryState]) {
	b.RNG = d.RNG()
	decRows(d, minCustomerRow, customers, decCustomer)
	b.Revenue = d.F64()
	b.AdImpressions = d.Int()
	b.Stopped = d.Bool()
	decRows(d, 8, retries, decRetry)
}

func encRecip(e *Encoder, src RecipSource) {
	h := src.Header()
	encBase(e, &h.Base, src.CustomerRows(), src.RetryRows())
	encU64s(e, h.Pool)
	encInts(e, h.AdaptTypes)
	e.Int(h.NextAcct)
	e.Bool(h.AutomationOn)
}

func decRecip(d *Decoder, s RecipSink) error {
	var h aas.ReciprocityState
	decBase(d, &h.Base, s.LoadCustomers, s.LoadRetries)
	h.Pool = decU64s[platform.AccountID](d, nil)
	h.AdaptTypes = decInts[platform.ActionType](d)
	h.NextAcct = d.Int()
	h.AutomationOn = d.Bool()
	return finish(d, "reciprocity service", func() error { return s.Finish(&h) })
}

func encColl(e *Encoder, src CollSource) {
	h := src.Header()
	encBase(e, &h.Base, src.CustomerRows(), src.RetryRows())
	e.F64(h.FreeRequestsPerDay)
	e.Time(h.FirstLikeBlock)
	e.Bool(h.LikeAdaptOn)
	e.Bool(h.SalesStopped)
	e.Int(h.NextAcct)
	e.Bool(h.AutomationOn)
	encActionCounts(e, h.Delivered)
}

func decColl(d *Decoder, s CollSink) error {
	var h aas.CollusionState
	decBase(d, &h.Base, s.LoadCustomers, s.LoadRetries)
	h.FreeRequestsPerDay = d.F64()
	h.FirstLikeBlock = d.Time()
	h.LikeAdaptOn = d.Bool()
	h.SalesStopped = d.Bool()
	h.NextAcct = d.Int()
	h.AutomationOn = d.Bool()
	h.Delivered = decActionCounts(d)
	return finish(d, "collusion service", func() error { return s.Finish(&h) })
}

// Encode writes a fixture snapshot to w; see EncodeBytes.
func Encode(w io.Writer, h Header, st *WorldState) error {
	_, err := w.Write(EncodeBytes(h, st))
	return err
}
