package platform

import "footsteps/internal/netsim"

// Session is an authenticated client acting as one account. Sessions are
// exactly what customers hand to an AAS: whoever holds the session can act
// as the account until the password is reset.
//
// Like every platform mutation, Do on a session runs on the world's
// goroutine: from scheduler callbacks, step apply, or the ingress drain
// point, never from a plan phase (see Platform).
//
// Every action is submitted as a Request through Do — the single entry
// point into the moderation pipeline. The former per-action shorthand
// methods (Follow, Like, ...) are gone; network clients reach Do through
// the /v1 wire envelope (internal/wire) instead.
type Session struct {
	p      *Platform
	id     AccountID
	epoch  uint64
	client ClientInfo

	// asn is client.IP's owning ASN as of routing generation asnGen;
	// asnGen 0 means never resolved (see netsim.Registry.Generation).
	asn    netsim.ASN
	asnGen uint64
}

// Account returns the account this session acts as.
func (s *Session) Account() AccountID { return s.id }

// Client returns the session's client metadata.
func (s *Session) Client() ClientInfo { return s.client }

// resolveASN returns the ASN owning the session's address under the
// registry's current routes. It walks the routing table only when the
// routes changed since the last call, so a route announced after login
// shows up on the next request.
func (s *Session) resolveASN() netsim.ASN {
	if s.p.net.Generation() != s.asnGen {
		s.reresolveASN()
	}
	return s.asn
}

// reresolveASN is resolveASN's slow path, kept apart so the check
// inlines into Do.
func (s *Session) reresolveASN() {
	s.asnGen = s.p.net.Generation()
	s.asn, _ = s.p.net.Lookup(s.client.IP)
}
