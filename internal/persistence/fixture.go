package persistence

import (
	"io"

	"footsteps/internal/aas"
	"footsteps/internal/behavior"
	"footsteps/internal/detection"
	"footsteps/internal/honeypot"
	"footsteps/internal/platform"
	"footsteps/internal/socialgraph"
)

// WorldState is a snapshot body as plain structs: the fixture type codec
// tests and fuzz targets build and corrupt. It is written and read
// through the same section code as a live world (each *State is its
// component's section source and sink); restore never goes through it.
type WorldState struct {
	Envelope
	Platform  *platform.State
	Graph     *socialgraph.State
	Behavior  *behavior.State
	Honeypots *honeypot.State
	Guard     *detection.IPVolumeGuardState // nil when no guard is installed
	Recip     []NamedRecip
	Coll      []NamedColl
}

// NamedRecip is one reciprocity service's state, keyed by service name.
type NamedRecip struct {
	Name  string
	State *aas.ReciprocityState
}

// NamedColl is one collusion service's state, keyed by service name.
type NamedColl struct {
	Name  string
	State *aas.CollusionState
}

func (st *WorldState) source() *Source {
	src := &Source{
		Envelope:  st.Envelope,
		Platform:  st.Platform,
		Graph:     st.Graph,
		Behavior:  st.Behavior,
		Honeypots: st.Honeypots,
	}
	if st.Guard != nil {
		src.Guard = st.Guard
	}
	for _, nr := range st.Recip {
		src.Recip = append(src.Recip, Named[RecipSource]{Name: nr.Name, S: nr.State})
	}
	for _, nc := range st.Coll {
		src.Coll = append(src.Coll, Named[CollSource]{Name: nc.Name, S: nc.State})
	}
	return src
}

func (st *WorldState) sinks() Sinks {
	st.Platform = &platform.State{}
	st.Graph = &socialgraph.State{}
	st.Behavior = &behavior.State{}
	st.Honeypots = &honeypot.State{}
	return Sinks{
		Platform:  st.Platform,
		Graph:     st.Graph,
		Behavior:  st.Behavior,
		Honeypots: st.Honeypots,
		Guard: func() GuardSink {
			st.Guard = &detection.IPVolumeGuardState{}
			return st.Guard
		},
		Recip: func(name string) RecipSink {
			s := &aas.ReciprocityState{}
			st.Recip = append(st.Recip, NamedRecip{Name: name, State: s})
			return s
		},
		Coll: func(name string) CollSink {
			s := &aas.CollusionState{}
			st.Coll = append(st.Coll, NamedColl{Name: name, State: s})
			return s
		},
	}
}

// EncodeBytes encodes a fixture snapshot. The caller stamps h.Version
// (normally the Version constant).
func EncodeBytes(h Header, st *WorldState) []byte {
	var e Encoder
	WriteHeader(&e, h)
	WriteBody(&e, st.source())
	return e.Bytes()
}

// Decode reads a full FSNAP stream from r into a fixture.
func Decode(r io.Reader) (Header, *WorldState, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Header{}, nil, err
	}
	return DecodeBytes(data)
}

// DecodeBytes decodes a full FSNAP stream, current (FSNAP2) or legacy
// (FSNAP1), into a fixture. It checks the wire layout only — the
// component invariants restore enforces are not a fixture's concern —
// and fails as ReadHeader and ReadBody do. It never panics, whatever
// the input.
func DecodeBytes(data []byte) (Header, *WorldState, error) {
	d := NewDecoder(data)
	h, err := ReadHeader(d)
	if err != nil {
		return h, nil, err
	}
	st := &WorldState{}
	env, err := ReadBody(d, h.Version, st.sinks())
	if err != nil {
		return h, nil, err
	}
	st.Envelope = env
	return h, st, nil
}
