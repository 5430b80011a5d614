package persistence

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"footsteps/internal/aas"
	"footsteps/internal/behavior"
	"footsteps/internal/detection"
	"footsteps/internal/honeypot"
	"footsteps/internal/netsim"
	"footsteps/internal/platform"
	"footsteps/internal/rng"
	"footsteps/internal/socialgraph"
)

func at(h int) time.Time {
	return time.Date(2017, time.September, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func rngState(n uint64) rng.State {
	return rng.State{S: [4]uint64{n, n + 1, n + 2, n + 3}, Lineage: n}
}

// tinyWorldState exercises every field of every component state with
// small, distinctive values: one account with posts/likes/logins, one
// graph post with likes and a comment, one member with a live session,
// a customer per engine kind with adaptation, breaker, retry, and
// unfollow state, a honeypot with dedup counters, guard windows, and
// the world-level RNG streams and cursors.
func tinyWorldState() *WorldState {
	return &WorldState{
		Envelope: Envelope{
			Root:      rngState(1),
			NetAlloc:  []netsim.AllocState{{ASN: 64496, Next: 7}, {ASN: 64512, Next: 1}},
			VPNRNGs:   []rng.State{rngState(9), rngState(10)},
			CrossRNG:  rngState(11),
			CrossSeen: []ServiceCount{{Name: "boostgram", N: 3}, {Name: "instalex", N: 5}},
		},
		Platform: &platform.State{
			NextPost: 12,
			LogSeq:   345,
			Accounts: []platform.AccountState{{
				ID:       1,
				Username: "acct-1",
				Password: "pw-1",
				Profile:  platform.Profile{PhotoCount: 4, HasProfilePic: true, HasBio: true, HasName: false},

				HomeCountry:    "USA",
				Created:        at(1),
				Deleted:        false,
				SessionEpoch:   3,
				LoginCountries: []platform.CountryCount{{Country: "USA", N: 2}},
				Posts:          []platform.PostID{5, 9},
				LikeCounts:     []platform.PostCount{{Post: 5, N: 11}},
			}, {
				ID: 2, Username: "acct-2", Password: "pw-2", Deleted: true, Created: at(2),
			}},
			Limiters:     []platform.LimiterState{{ID: 1, Hour: 417912, Count: 13}},
			Tags:         []platform.TagState{{Tag: "#follow4follow", Posts: []platform.PostID{9, 5}}},
			Enforcements: []platform.EnforcementState{{From: 1, To: 2, Due: at(80)}},
		},
		Graph: &socialgraph.State{
			NextAcct: 3,
			NextPost: 10,
			Accounts: []socialgraph.AccountState{{
				ID: 1, Created: at(1), Followees: []socialgraph.AccountID{2}, Posts: []socialgraph.PostID{5},
			}, {ID: 2, Created: at(2)}},
			Posts: []socialgraph.PostState{{
				ID: 5, Author: 1, Created: at(3),
				Likes:    []socialgraph.AccountID{2},
				Comments: []socialgraph.Comment{{Author: 2, Text: "nice", At: at(4)}},
			}},
		},
		Behavior: &behavior.State{
			RNG:      rngState(2),
			NextName: 9,
			Members: []behavior.MemberState{{
				Profile: behavior.Profile{
					ID: 1, Country: "BRA", OutDeg: 3, InDeg: 5,
					LikeToLike: 0.25, LikeToFollow: 0.5, FollowToFollow: 0.125,
				},
				Tag: "#travel",
				Session: platform.SessionState{
					Present: true, ID: 1, Epoch: 3,
					IP:          netip.AddrFrom4([4]byte{10, 1, 2, 3}),
					Fingerprint: "mobile-official", API: platform.APIPrivate,
				},
				RNG: rngState(3),
			}},
			General:   []platform.AccountID{1, 2},
			Pools:     []behavior.PoolState{{Label: "instalex", IDs: []platform.AccountID{1}}},
			Reacted:   []behavior.ChannelCount{{Channel: "follow-back", N: 4}},
			Reactions: []behavior.ReactionState{{Member: 1, Actor: 2, Action: platform.ActionFollow, Channel: "follow-back", Due: at(81)}},
		},
		Honeypots: &honeypot.State{
			RNG:         rngState(4),
			NextID:      2,
			HighProfile: []platform.AccountID{2},
			Accounts: []honeypot.AccountState{{
				ID: 7, Username: "hp-0", Password: "hp-pw", Kind: honeypot.Empty,
				Created: at(5), EnrolledWith: "instalex",
				Inbound:  []honeypot.TypeCount{{Type: platform.ActionFollow, N: 6}},
				Outbound: []honeypot.TypeCount{{Type: platform.ActionLike, N: 2}},
				InboundDedup: []honeypot.ActorCounts{{
					Actor: 1, Counts: []honeypot.TypeCount{{Type: platform.ActionFollow, N: 1}},
				}},
				Enforcements: 1, Duplicates: 2, Deleted: false,
			}},
		},
		Guard: &detection.IPVolumeGuardState{
			Windows:   []detection.IPWindowState{{IP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Day: 3, N: 1999}},
			Throttled: []detection.ClientCount{{Client: "hublaagram-web", N: 12}},
		},
		Recip: []NamedRecip{{
			Name: "instalex",
			State: &aas.ReciprocityState{
				Base: aas.BaseState{
					RNG: rngState(5),
					Customers: []aas.CustomerState{{
						Account: 1, Username: "acct-1", Password: "pw-1", Country: "USA",
						Managed: true, Wants: []aas.Offering{aas.OfferFollow},
						Hashtags: []string{"#travel"}, EnrolledAt: at(6),
						LongTermIntent: true, EngagedUntil: at(90), Churned: false,
						PaidThrough: at(700), Payments: []aas.Payment{{At: at(6), Amount: 9.99}},
						FirstPaidBeforeStudy: true, Product: 1, Tier: 2,
						Session: platform.SessionState{
							Present: true, ID: 1, Epoch: 3,
							IP:          netip.AddrFrom4([4]byte{10, 9, 8, 7}),
							Fingerprint: "instalex-backend", API: platform.APIPrivate,
						},
						OwnSession: platform.SessionState{},
						Adapt: []aas.AdaptState{{
							Action: platform.ActionFollow, LearnedCap: 57.5, TodayCount: 3,
							TodayBlocked: true, BlockedUntil: at(82), ProbeWait: 2,
						}},
						RecentFollows:   []aas.UnfollowState{{Target: 2, Due: at(83)}},
						UnfollowAfter:   true,
						LastFreeRequest: at(7),
						Totals:          []aas.ActionCount{{Action: platform.ActionFollow, N: 41}},
						RNG:             rngState(6), RelRNG: rngState(7),
						Breaker: aas.BreakerState{Fails: 2, Tripped: true, OpenUntil: at(84)},
					}},
					Revenue: 129.5, AdImpressions: 77, Stopped: false,
					Retries: []aas.RetryState{{
						Customer: 1, Action: platform.ActionFollow, Target: 2, Post: 0,
						Text: "", Tags: []string{"#travel"}, Attempt: 2, Due: at(85),
					}},
				},
				Pool:         []platform.AccountID{1, 2},
				AdaptTypes:   []platform.ActionType{platform.ActionFollow, platform.ActionLike},
				NextAcct:     4,
				AutomationOn: true,
			},
		}},
		Coll: []NamedColl{{
			Name: "hublaagram",
			State: &aas.CollusionState{
				Base: aas.BaseState{
					RNG:     rngState(8),
					Revenue: 3.5,
				},
				FreeRequestsPerDay: 1.5,
				FirstLikeBlock:     at(8),
				LikeAdaptOn:        true,
				SalesStopped:       false,
				NextAcct:           5,
				AutomationOn:       true,
				Delivered:          []aas.ActionCount{{Action: platform.ActionLike, N: 1234}},
			},
		}},
	}
}

func tinyHeader() Header {
	return Header{Version: Version, Seed: 42, Fingerprint: 0xdeadbeef, Day: 3, Now: at(72)}
}

// TestRoundTripCanonical pins the codec's core property: decoding an
// encoded snapshot and re-encoding it reproduces the identical bytes,
// and the header comes back field for field.
func TestRoundTripCanonical(t *testing.T) {
	t.Parallel()
	h, st := tinyHeader(), tinyWorldState()
	enc := EncodeBytes(h, st)
	gotH, gotSt, err := DecodeBytes(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotH.Version != h.Version || gotH.Seed != h.Seed || gotH.Fingerprint != h.Fingerprint ||
		gotH.Day != h.Day || !gotH.Now.Equal(h.Now) {
		t.Errorf("header mutated in round trip:\n got %+v\nwant %+v", gotH, h)
	}
	again := EncodeBytes(gotH, gotSt)
	if !bytes.Equal(enc, again) {
		t.Errorf("re-encoded snapshot differs: %d vs %d bytes", len(again), len(enc))
	}
}

// TestEncodeViaWriter covers the io.Writer / io.Reader entry points.
func TestEncodeViaWriter(t *testing.T) {
	t.Parallel()
	h, st := tinyHeader(), tinyWorldState()
	var buf bytes.Buffer
	if err := Encode(&buf, h, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotH, _, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotH.Seed != h.Seed {
		t.Errorf("seed %d, want %d", gotH.Seed, h.Seed)
	}
}

func TestBadMagic(t *testing.T) {
	t.Parallel()
	for _, data := range [][]byte{nil, []byte("FS"), []byte("FSEV1\n\x01"), []byte("garbage here")} {
		if _, _, err := DecodeBytes(data); !errors.Is(err, ErrBadMagic) {
			t.Errorf("DecodeBytes(%q): want ErrBadMagic, got %v", data, err)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	t.Parallel()
	h := tinyHeader()
	h.Version = Version + 1
	enc := EncodeBytes(h, tinyWorldState())
	var mm *MismatchError
	if _, _, err := DecodeBytes(enc); !errors.As(err, &mm) {
		t.Fatalf("want MismatchError, got %v", err)
	} else if mm.Field != "format version" || mm.Got != Version+1 || mm.Want != Version {
		t.Errorf("wrong mismatch detail: %+v", mm)
	}
}

// TestDeltaList covers the FSNAP2 sorted-list codec directly: round
// trips (including duplicates and an empty list), the unsorted-writer
// panic, and the decoder's overflow rejection.
func TestDeltaList(t *testing.T) {
	t.Parallel()
	for _, xs := range [][]uint64{nil, {0}, {7}, {1, 2, 3}, {5, 5, 9}, {1, 1 << 40, 1<<63 + 1}} {
		var e Encoder
		encU64sDelta(&e, xs)
		d := NewDecoder(e.Bytes())
		got := decU64sDelta[uint64](d, nil)
		if err := d.Done(); err != nil {
			t.Fatalf("delta decode %v: %v", xs, err)
		}
		if len(got) != len(xs) {
			t.Fatalf("delta round trip %v → %v", xs, got)
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("delta round trip %v → %v", xs, got)
			}
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("delta-encoding an unsorted list did not panic")
			}
		}()
		var e Encoder
		encU64sDelta(&e, []uint64{3, 1})
	}()

	var e Encoder
	e.U64(2)
	e.U64(1 << 63)
	e.U64(1 << 63) // second element wraps past MaxUint64
	d := NewDecoder(e.Bytes())
	decU64sDelta[uint64](d, nil)
	if d.Err() == nil {
		t.Error("overflowing delta list decoded cleanly")
	}
}

// TestSharedLists: rows' lists decoded through one lists value share
// its arrays but are each capped at their own length, so appending to
// one never writes into the next; a lying count still decodes no more
// than the input holds and fails.
func TestSharedLists(t *testing.T) {
	t.Parallel()
	want := [][]uint64{{1, 2, 3}, nil, {4}, {5, 6}}
	var e Encoder
	for _, xs := range want {
		encU64sDelta(&e, xs)
	}
	d := NewDecoder(e.Bytes())
	var l lists[uint64]
	got := make([][]uint64, len(want))
	for i := range got {
		got[i] = decU64sDelta(d, &l)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for i, xs := range got {
		if len(xs) != len(want[i]) || cap(xs) != len(xs) {
			t.Fatalf("list %d = %v (cap %d), want %v capped at its length", i, xs, cap(xs), want[i])
		}
	}
	data := e.Bytes()
	if allocs := testing.AllocsPerRun(10, func() {
		d := NewDecoder(data)
		var l lists[uint64]
		for range want {
			decU64sDelta(d, &l)
		}
	}); allocs > 2 {
		t.Errorf("decoding %d lists allocates %.0f times, want one shared array and the decoder", len(want), allocs)
	}
	got[0] = append(got[0], 99)
	if got[2][0] != 4 {
		t.Errorf("appending to one list overwrote the next: %v", got[2])
	}

	e.Reset()
	e.U64(1 << 20) // claimed elements
	e.U64(7)       // the only one present
	d = NewDecoder(e.Bytes())
	if xs := decU64s(d, &l); d.Err() == nil || len(xs) > 1 {
		t.Errorf("lying count decoded %d elements, error %v", len(xs), d.Err())
	}
}

// TestStrChunks: decoded strings are copied out of the input, empty
// strings included, and a short input gets a chunk sized by its length
// (rounded up to an allocation size class), not a full one.
func TestStrChunks(t *testing.T) {
	t.Parallel()
	var e Encoder
	for _, s := range []string{"alpha", "", "beta"} {
		e.Str(s)
	}
	data := e.Bytes()
	d := NewDecoder(data)
	a, empty, b := d.Str(), d.Str(), d.Str()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	clear(data)
	if a != "alpha" || empty != "" || b != "beta" {
		t.Fatalf("decoded %q %q %q, want the strings intact after the input is overwritten", a, empty, b)
	}
	if c := d.strs.Cap(); c > 2*len(data) {
		t.Errorf("string chunk holds %d bytes for a %d-byte input", c, len(data))
	}
}

// TestLegacyMagicVersionAgreement: an FSNAP1 magic with an FSNAP2
// header version (and vice versa) is a mismatch, not a silent misread.
func TestLegacyMagicVersionAgreement(t *testing.T) {
	t.Parallel()
	enc := EncodeBytes(tinyHeader(), tinyWorldState())
	relabeled := append([]byte("FSNAP1\n"), enc[7:]...)
	var mm *MismatchError
	if _, _, err := DecodeBytes(relabeled); !errors.As(err, &mm) {
		t.Fatalf("want MismatchError for v1 magic with v2 header, got %v", err)
	} else if mm.Field != "format version" || mm.Got != Version || mm.Want != VersionV1 {
		t.Errorf("wrong mismatch detail: %+v", mm)
	}
}

// TestTruncationOffsets cuts a valid snapshot at every byte boundary:
// each prefix must fail with a typed error whose offset lands inside
// the prefix — the fsevdump-style diagnostic contract — and never panic.
func TestTruncationOffsets(t *testing.T) {
	t.Parallel()
	enc := EncodeBytes(tinyHeader(), tinyWorldState())
	for cut := 0; cut < len(enc); cut++ {
		_, _, err := DecodeBytes(enc[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", cut, len(enc))
		}
		var te *TruncatedError
		if errors.As(err, &te) {
			if te.Offset < 0 || te.Offset > int64(cut) {
				t.Fatalf("cut=%d: offset %d outside prefix", cut, te.Offset)
			}
		} else if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut=%d: want TruncatedError or ErrBadMagic, got %v", cut, err)
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	t.Parallel()
	enc := append(EncodeBytes(tinyHeader(), tinyWorldState()), 0xAA, 0xBB)
	var te *TruncatedError
	if _, _, err := DecodeBytes(enc); !errors.As(err, &te) {
		t.Fatalf("want TruncatedError for trailing bytes, got %v", err)
	} else if te.Offset != int64(len(enc)-2) {
		t.Errorf("trailing-garbage offset %d, want %d", te.Offset, len(enc)-2)
	}
}

// TestAllocBudgetEncode pins the checkpoint write path's allocation
// behavior: encoding must not allocate per element — only the O(log n)
// buffer growths. A thousand limiter entries therefore stay under a
// twentieth of an allocation each.
func TestAllocBudgetEncode(t *testing.T) {
	st := tinyWorldState()
	st.Platform.Limiters = make([]platform.LimiterState, 1000)
	for i := range st.Platform.Limiters {
		st.Platform.Limiters[i] = platform.LimiterState{ID: platform.AccountID(i), Hour: int64(417000 + i), Count: i % 50}
	}
	h := tinyHeader()
	got := testing.AllocsPerRun(20, func() {
		_ = EncodeBytes(h, st)
	})
	perElement := got / 1000
	if perElement > 0.05 {
		t.Errorf("EncodeBytes allocates %.1f total (%.3f per element) — a per-element allocation crept into the encode path", got, perElement)
	}
}
