package platform

import (
	"fmt"
	"time"

	"footsteps/internal/trace"
)

// Request is the unified action envelope: one typed value carrying the
// session (actor + client metadata), the action kind, and its payload.
// Every mutation of platform state routes through Do(Request), so
// session validity, fault injection, rate limiting, gatekeeping,
// application, event emission, and telemetry happen at one choke point
// instead of being re-wired per action.
//
// Payload fields by action:
//
//	ActionLike     Post
//	ActionFollow   Target
//	ActionUnfollow Target
//	ActionComment  Post, Text
//	ActionPost     Tags (optional)
//
// Unused fields are ignored.
type Request struct {
	Session *Session
	Action  ActionType
	Target  AccountID
	Post    PostID
	Text    string
	Tags    []string
}

// Response reports how a Request fared. Outcome mirrors the emitted
// event's outcome; when the request died before any event could be
// emitted (revoked session, missing session), Outcome is OutcomeFailed
// and Err says why.
type Response struct {
	// Outcome is the terminal outcome of the request.
	Outcome Outcome
	// Err is non-nil when the action did not take effect: one of the
	// package's sentinel errors (possibly wrapped) or a graph error.
	Err error
	// Applied is true when the action changed state; an allowed
	// structural no-op (re-follow, re-like) leaves it false and the
	// emitted event carries Duplicate.
	Applied bool
	// Post is the created post's ID for an allowed ActionPost.
	Post PostID
}

// Do submits a request on this session. Shorthand for p.Do with the
// Session field set.
func (s *Session) Do(req Request) Response {
	req.Session = s
	return s.p.Do(req)
}

// Do routes one action request through the full pipeline:
//
//	preflight → session epoch → fault injection → rate limit →
//	gatekeeper → apply → emit (→ deferred enforcement)
//
// The stages and their order are load-bearing — see
// docs/ARCHITECTURE.md before reordering anything:
//
//   - structural preflight (target post/account must exist) fails
//     without consulting the session, limiter, or gatekeeper, like a
//     404 from a stateless frontend;
//   - an injected outage emits OutcomeUnavailable before rate limiting,
//     so a faulted request consumes no budget and a client retry cannot
//     double-count;
//   - the gatekeeper sees the request with its ASN resolved, after the
//     limiter — countermeasures observe only traffic the service would
//     actually process;
//   - subscribers may call back into the platform, so emission happens
//     only once the request's own state changes are complete.
func (p *Platform) Do(req Request) Response {
	p.phase.CheckWrite("platform.Do")
	s := req.Session
	if s == nil {
		return Response{Outcome: OutcomeFailed, Err: ErrNoSession}
	}

	// Span starts before preflight so even structural 404s get latency
	// attribution. A nil sp (tracing off, or this request unsampled)
	// makes every mark below a no-op.
	var sp *trace.Active
	if tr := p.tracer; tr != nil {
		sp = tr.StartRequest(trace.KindRequest, uint64(s.id), uint8(req.Action))
	}

	// The ASN resolves here, once: the fault injector, the gatekeeper
	// and every subscriber see this one answer. ev is filled field by
	// field because the pipeline hands out its address, and Go builds a
	// composite literal for such a variable in a temporary and copies it.
	var ev Event
	ev.Type = req.Action
	ev.Actor = s.id
	ev.Time = p.clk.Now()
	ev.IP = s.client.IP
	ev.ASN = s.resolveASN()
	ev.Client = s.client.Fingerprint
	ev.API = s.client.API

	// Structural preflight per action kind. Application itself lives in
	// applyAction — a plain method, not a per-request closure, so the
	// steady-state pipeline allocates nothing for dispatch.
	resp := Response{}
	switch req.Action {
	case ActionLike, ActionComment:
		author, ok := p.PostAuthor(req.Post)
		if !ok {
			sp.Stage(trace.StagePreflight, trace.VerdictFail)
			ev.Post = req.Post
			return p.failReq(&ev, sp)
		}
		ev.Target, ev.Post = author, req.Post
	case ActionFollow, ActionUnfollow:
		if !p.Exists(req.Target) {
			sp.Stage(trace.StagePreflight, trace.VerdictFail)
			ev.Target = req.Target
			return p.failReq(&ev, sp)
		}
		ev.Target = req.Target
	case ActionPost:
	default:
		sp.Stage(trace.StagePreflight, trace.VerdictFail)
		sp.End(uint8(OutcomeFailed), 0, 0, 0)
		return Response{Outcome: OutcomeFailed,
			Err: fmt.Errorf("platform: action %v cannot be requested", req.Action)}
	}
	sp.Stage(trace.StagePreflight, trace.VerdictOK)

	r, ok := p.accts.live(s.id)
	if !ok || p.accts.sessionEpochs[r] != s.epoch {
		sp.Stage(trace.StageSession, trace.VerdictRevoked)
		sp.End(uint8(OutcomeFailed), uint64(ev.Target), uint64(ev.Post), 0)
		return Response{Outcome: OutcomeFailed, Err: ErrSessionRevoked}
	}
	sp.Stage(trace.StageSession, trace.VerdictOK)
	var fd FaultDecision
	if p.faults != nil {
		fd = p.faults.Decide(ev.Time, s.id, ev.Type, ev.ASN, uint64(ev.Target)<<32^uint64(ev.Post))
	}
	if fd.RevokeSession {
		// Session-store flap: every live session for the account dies,
		// exactly like an organic revocation — no event is emitted.
		p.accts.sessionEpochs[r]++
		sp.Stage(trace.StageFaults, trace.VerdictRevoked)
		sp.End(uint8(OutcomeFailed), uint64(ev.Target), uint64(ev.Post), 0)
		return Response{Outcome: OutcomeFailed, Err: ErrSessionRevoked}
	}
	if fd.Unavailable {
		// Injected before rate limiting on purpose: an unavailable
		// request consumes no budget, so a client retry cannot
		// double-count against the limiter.
		sp.Stage(trace.StageFaults, trace.VerdictUnavailable)
		ev.Outcome = OutcomeUnavailable
		p.emitSpan(&ev, sp)
		endSpan(sp, &ev)
		return Response{Outcome: OutcomeUnavailable, Err: ErrUnavailable}
	}
	sp.Stage(trace.StageFaults, trace.VerdictOK)
	limit := p.cfg.PrivateHourlyLimit
	if s.client.API == APIOAuth {
		limit = p.cfg.OAuthHourlyLimit
	}
	effLimit := limit
	if fd.LimitScale > 0 && fd.LimitScale < 1 && limit > 0 {
		// Rate-limit storm: the limit is temporarily a fraction of its
		// configured value (at least 1, so storms throttle rather than
		// blackhole).
		effLimit = int(float64(limit) * fd.LimitScale)
		if effLimit < 1 {
			effLimit = 1
		}
	}
	if !p.limiter.allow(r, ev.Time, effLimit) {
		// A denial is storm-attributable when the tightened limit fired
		// below the level the ordinary limit would have tolerated.
		storm := effLimit < limit && p.limiter.peek(r, ev.Time) < limit
		if storm {
			sp.Stage(trace.StageRateLimit, trace.VerdictStorm)
		} else {
			sp.Stage(trace.StageRateLimit, trace.VerdictDenied)
		}
		if m := p.tel; m != nil {
			m.rateLimited.Inc()
			if storm {
				m.stormDenied.Inc()
			}
		}
		ev.Outcome = OutcomeRateLimited
		p.emitSpan(&ev, sp)
		endSpan(sp, &ev)
		return Response{Outcome: OutcomeRateLimited, Err: ErrRateLimited}
	}
	sp.Stage(trace.StageRateLimit, trace.VerdictOK)

	verdict := Allow
	if gate := p.gate; gate != nil {
		// The gatekeeper sees the request with its ASN resolved, exactly
		// the signal surface detection uses.
		verdict = gate.Check(ev)
		if m := p.tel; m != nil {
			m.gateChecks.Inc()
			switch verdict.Kind {
			case VerdictBlock:
				m.verdictBlock.Inc()
			case VerdictDelayRemove:
				m.verdictDelay.Inc()
			}
		}
	}
	switch verdict.Kind {
	case VerdictBlock:
		sp.Stage(trace.StageGatekeep, trace.VerdictBlocked)
	case VerdictDelayRemove:
		sp.Stage(trace.StageGatekeep, trace.VerdictDelayed)
	default:
		sp.Stage(trace.StageGatekeep, trace.VerdictOK)
	}
	if verdict.Kind == VerdictBlock {
		ev.Outcome = OutcomeBlocked
		p.emitSpan(&ev, sp)
		endSpan(sp, &ev)
		return Response{Outcome: OutcomeBlocked, Err: ErrBlocked}
	}

	applied, err := p.applyAction(req, &resp, ev.Target)
	if err != nil {
		sp.Stage(trace.StageApply, trace.VerdictFail)
		ev.Outcome = OutcomeFailed
		p.emitSpan(&ev, sp)
		endSpan(sp, &ev)
		return Response{Outcome: OutcomeFailed, Err: err}
	}
	sp.Stage(trace.StageApply, trace.VerdictOK)
	ev.Outcome = OutcomeAllowed
	ev.Duplicate = !applied
	p.emitSpan(&ev, sp)
	endSpan(sp, &ev)
	resp.Outcome = OutcomeAllowed
	resp.Applied = applied

	// Hashtags attach after the post event exists, mirroring a caption
	// indexed once the media is live.
	if req.Action == ActionPost {
		for _, t := range req.Tags {
			p.tags.add(t, resp.Post)
		}
	}

	if verdict.Kind == VerdictDelayRemove && ev.Type == ActionFollow {
		delay := verdict.RemoveAfter
		if delay <= 0 {
			delay = 24 * time.Hour
		}
		// The pending removal lives in a table entry rather than closure
		// captures so snapshots can serialize it; the scheduled callback
		// only points at the entry. Same instant, same draws, same event.
		e := &pendingEnforcement{from: ev.Actor, to: ev.Target, due: ev.Time.Add(delay)}
		p.enforce = append(p.enforce, e)
		p.sched.After(delay, func() { p.fireEnforcement(e) })
	}
	return resp
}

// fireEnforcement executes one scheduled delayed-removal and retires its
// table entry. Runs on the scheduler goroutine.
func (p *Platform) fireEnforcement(e *pendingEnforcement) {
	p.phase.CheckWrite("platform.fireEnforcement")
	e.done = true
	for i, pe := range p.enforce {
		if pe == e {
			p.enforce = append(p.enforce[:i], p.enforce[i+1:]...)
			break
		}
	}
	if p.cfg.GraphWrites {
		// Either endpoint may be gone by now; removal is then moot.
		if !p.graph.Exists(e.from) || !p.graph.Exists(e.to) {
			p.tracer.Instant(trace.KindEnforcement, uint64(e.from), uint8(ActionUnfollow), trace.VerdictMoot, 0, 0)
			return
		}
		if removed, _ := p.graph.Unfollow(e.from, e.to); !removed {
			p.tracer.Instant(trace.KindEnforcement, uint64(e.from), uint8(ActionUnfollow), trace.VerdictMoot, 0, 0)
			return
		}
	}
	p.tracer.Instant(trace.KindEnforcement, uint64(e.from), uint8(ActionUnfollow), trace.VerdictOK, 0, 0)
	// A platform-performed action has no source address, so no ASN.
	ev := Event{
		Time: p.clk.Now(), Type: ActionUnfollow, Actor: e.from,
		Target: e.to, Outcome: OutcomeAllowed, Enforcement: true,
	}
	p.emitSpan(&ev, nil)
}

// applyAction performs the state mutation for an already-vetted request.
// target is the preflight-resolved event target (the post author for
// Like). Keeping this a method instead of a per-request closure is what
// makes Do allocation-free in steady state; the behavior is identical to
// the closures it replaced.
func (p *Platform) applyAction(req Request, resp *Response, target AccountID) (bool, error) {
	s := req.Session
	switch req.Action {
	case ActionLike:
		if p.cfg.GraphWrites {
			return p.graph.Like(s.id, req.Post)
		}
		if r, ok := p.accts.row(target); ok {
			p.accts.bumpLike(r, req.Post)
		}
		return true, nil
	case ActionFollow:
		if p.cfg.GraphWrites {
			return p.graph.Follow(s.id, req.Target)
		}
		return true, nil
	case ActionUnfollow:
		if p.cfg.GraphWrites {
			return p.graph.Unfollow(s.id, req.Target)
		}
		return true, nil
	case ActionComment:
		if p.cfg.GraphWrites {
			return true, p.graph.AddComment(s.id, req.Post, req.Text, p.clk.Now())
		}
		return true, nil
	case ActionPost:
		r, ok := p.accts.live(s.id)
		if !ok {
			return false, ErrAccountGone
		}
		resp.Post = p.addPost(r)
		return true, nil
	}
	return false, fmt.Errorf("platform: action %v cannot be requested", req.Action)
}

// failReq records a structurally invalid request (target post or account
// does not exist) and returns the failure. The event deliberately skips
// session, limiter, and gatekeeper checks: a 404 from a stateless
// frontend, not a policy decision.
func (p *Platform) failReq(ev *Event, sp *trace.Active) Response {
	ev.Outcome = OutcomeFailed
	p.emitSpan(ev, sp)
	endSpan(sp, ev)
	return Response{Outcome: OutcomeFailed,
		Err: fmt.Errorf("platform: %s target does not exist", ev.Type)}
}
