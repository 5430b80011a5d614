// Package server is the network-facing serving layer: an HTTP/WS front
// end over the versioned wire API of internal/wire. Handler goroutines
// only parse, validate, and enqueue envelopes onto a bounded
// core.IngestQueue and wait for outcomes; the world loop stays the
// single writer, draining ingress at fixed simulated instants
// (World.ServeTick) so that a recorded FING1 ingress log replays to a
// byte-identical FSEV1 stream. See docs/API.md.
package server

import (
	"fmt"

	"footsteps/internal/aas"
	"footsteps/internal/core"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/wire"
)

// DefaultClient is the client fingerprint attached to wire logins that
// do not name one.
const DefaultClient = "wire-client"

// Executor applies admitted wire envelopes to the world. It owns the
// serving layer's only mutable state outside the world itself — the
// token → session table — and is driven exclusively from the world
// loop (live serving) or the replay loop, never concurrently.
//
// Every decision an Executor makes is a pure function of world state
// and the envelope bytes: token strings derive from a counter seeded by
// the config, default ASNs and profiles are constants, and all
// rejections an Executor can produce are state-dependent ones. That is
// the property that lets a FING1 replay reconstruct the exact session
// table of the live run.
type Executor struct {
	w        *core.World
	sessions map[string]*platform.Session
	tokenCtr uint64
	tokenKey uint64
}

// NewExecutor returns an executor for w. Token strings derive from the
// world's seed, so a live run and its replay (same config) mint
// identical tokens.
func NewExecutor(w *core.World) *Executor {
	return &Executor{
		w:        w,
		sessions: make(map[string]*platform.Session),
		tokenKey: splitmix64(w.Cfg.Seed ^ 0x5e11f00d),
	}
}

// splitmix64 is the SplitMix64 finalizer; good enough to make tokens
// non-guessy without any wall-clock or crypto input (which would break
// replay).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (e *Executor) nextToken() string {
	e.tokenCtr++
	return fmt.Sprintf("t%016x", splitmix64(e.tokenCtr^e.tokenKey))
}

// Sessions reports the live session count (exported for the server's
// queue-depth/session gauges).
func (e *Executor) Sessions() int { return len(e.sessions) }

// Apply executes one raw envelope: it parses data and hands the result
// to ApplyRequest. FING1 replay enters here, since a log holds only the
// envelope bytes; replay therefore parses each logged line once more,
// where the live loop applies the form its handler already parsed. A
// parse failure (possible only if a log was hand-edited) maps to the
// envelope's typed error.
func (e *Executor) Apply(data []byte) wire.Outcome {
	req, werr := wire.ParseRequest(data)
	if werr != nil {
		return werr.Outcome(req.ID)
	}
	return e.ApplyRequest(req)
}

// ApplyRequest executes one envelope that has passed wire.ParseRequest
// against the world at the current simulated instant and returns its
// outcome. The live loop calls it with the request its handler parsed
// at admission; ParseRequest is a pure function of the bytes, so this
// is the same request a replay of the logged bytes applies.
func (e *Executor) ApplyRequest(req wire.Request) wire.Outcome {
	switch req.Op {
	case wire.OpRegister:
		return e.register(req)
	case wire.OpLogin:
		return e.login(req)
	default:
		return e.action(req)
	}
}

func (e *Executor) register(req wire.Request) wire.Outcome {
	country := req.Country
	if country == "" {
		country = "USA"
	}
	// Wire-registered accounts get a modest real-looking profile; the
	// abuse-detection features that matter (posting, followers) accrue
	// from behavior, not the registration stub.
	id, err := e.w.Plat.RegisterAccount(req.Username, req.Password, platform.Profile{
		PhotoCount: 1, HasProfilePic: true, HasBio: false, HasName: true,
	}, country)
	if err != nil {
		return failure(req.ID, err)
	}
	return wire.Outcome{V: wire.Version, ID: req.ID, Status: wire.StatusAllowed, Applied: true, Account: uint64(id)}
}

func (e *Executor) login(req wire.Request) wire.Outcome {
	asn := aas.ASNResUSA
	if req.ASN != 0 {
		asn = netsim.ASN(req.ASN)
		if _, ok := e.w.Reg.Info(asn); !ok {
			return wire.Outcome{V: wire.Version, ID: req.ID, Status: wire.StatusError,
				Code: wire.CodeUnknownASN, Detail: fmt.Sprintf("ASN %d is not announced", req.ASN)}
		}
	}
	client := req.Client
	if client == "" {
		client = DefaultClient
	}
	sess, err := e.w.Plat.Login(req.Username, req.Password, platform.ClientInfo{
		IP:          e.w.Reg.Allocate(asn),
		Fingerprint: client,
		API:         req.APIKind(),
	})
	if err != nil {
		return failure(req.ID, err)
	}
	tok := e.nextToken()
	e.sessions[tok] = sess
	return wire.Outcome{V: wire.Version, ID: req.ID, Status: wire.StatusAllowed, Applied: true, Token: tok}
}

func (e *Executor) action(req wire.Request) wire.Outcome {
	sess, ok := e.sessions[req.Token]
	if !ok {
		return wire.Outcome{V: wire.Version, ID: req.ID, Status: wire.StatusError,
			Code: wire.CodeUnknownToken, Detail: "no session for token"}
	}
	preq, ok := req.PlatformRequest()
	if !ok {
		// Unreachable: ParseRequest admits only mapped ops past
		// register/login. Kept as a typed failure, not a panic.
		return wire.Errf(wire.CodeInternal, "op %q has no platform mapping", req.Op).Outcome(req.ID)
	}
	resp := sess.Do(preq)
	out := wire.Outcome{
		V:       wire.Version,
		ID:      req.ID,
		Status:  wire.StatusFor(resp.Outcome),
		Applied: resp.Applied,
		Post:    uint64(resp.Post),
	}
	if resp.Err != nil {
		out.Code = wire.CodeForError(resp.Err)
		out.Detail = resp.Err.Error()
	}
	return out
}

// failure renders a platform error as a wire outcome. State-dependent
// identity failures (bad credentials, username taken, fault-injected
// unavailability) are StatusError/StatusUnavailable with their typed
// code.
func failure(id uint64, err error) wire.Outcome {
	code := wire.CodeForError(err)
	status := wire.StatusError
	if code == wire.CodeUnavailable {
		status = wire.StatusUnavailable
	}
	return wire.Outcome{V: wire.Version, ID: id, Status: status, Code: code, Detail: err.Error()}
}
