// Package wire defines the stable, versioned request surface the serving
// layer speaks: the `/v1` JSON envelope for requests and outcomes, the
// typed status and error-code enums external clients program against, the
// JSON mirror of the platform event stream, and the FING1 ingress-log
// codec that makes a served run replayable.
//
// The package exists so that no client — a browser, a measurement
// harness in another language — ever depends on internal
// Go types. Platform enums (platform.ActionType, platform.Outcome) are
// integers whose values are an implementation detail; the wire schema
// maps every one of them to an explicit string that is frozen per wire
// version. See docs/API.md for the full schema and versioning policy.
//
// Request envelopes are decoded by a hand-written, single-pass decoder
// (decode.go): no reflection, one allocation per non-empty string field.
// It accepts exactly what encoding/json accepts into a Request and
// yields the same value, so ingress logs recorded before it replay
// unchanged. FuzzParseRequestMatchesJSON holds that equivalence.
// Outcomes and WS events are encoded by hand too (AppendOutcomeJSON,
// AppendEventJSON), byte for byte as json.Marshal writes them, which
// FuzzAppendOutcomeJSONMatchesJSON and FuzzAppendEventJSONMatchesJSON
// hold. The package imports encoding/json only in its tests, as that
// reference.
//
// Parsing never panics and never allocates unboundedly: envelopes are
// size-capped, every malformed input maps to a typed *Error with a
// machine-readable Code, and the fuzz targets in fuzz_test.go hold the
// no-panic property over arbitrary bytes.
package wire

import (
	"errors"
	"fmt"

	"footsteps/internal/platform"
)

// Version is the wire-format version this package speaks. Requests must
// carry it in their "v" field; outcomes echo it back. Breaking schema
// changes bump the version and mount under a new /vN prefix — see
// docs/API.md for the compatibility rules.
const Version = 1

// MaxEnvelopeBytes caps a single request envelope. Anything longer is
// rejected with CodeTooLarge before JSON decoding is attempted, so a
// hostile client cannot make the parser allocate per its content length.
const MaxEnvelopeBytes = 1 << 16

// MaxTextBytes caps the free-text fields (comment text, tags, usernames,
// fingerprints) inside an otherwise valid envelope.
const MaxTextBytes = 1 << 10

// MaxTags caps the hashtag list on a post request.
const MaxTags = 16

// Op enumerates the request operations of wire version 1. The first two
// manage identity; the rest map one-to-one onto the platform's action
// families (Table 1 of the paper).
type Op string

// Operations.
const (
	OpRegister Op = "register"
	OpLogin    Op = "login"
	OpLike     Op = "like"
	OpFollow   Op = "follow"
	OpUnfollow Op = "unfollow"
	OpComment  Op = "comment"
	OpPost     Op = "post"
)

// Ops lists every valid operation, in documentation order.
func Ops() []Op {
	return []Op{OpRegister, OpLogin, OpLike, OpFollow, OpUnfollow, OpComment, OpPost}
}

// Request is the versioned `/v1` request envelope. One JSON object per
// request; which fields are required depends on Op (see Validate).
// Unknown fields are ignored — the v1 compatibility rule that lets
// clients send fields from future minor revisions.
type Request struct {
	// V is the wire version; must equal Version.
	V int `json:"v"`
	// ID is an optional client correlation id, echoed verbatim on the
	// outcome. The server never interprets it.
	ID uint64 `json:"id,omitempty"`
	// Op selects the operation.
	Op Op `json:"op"`

	// Token authenticates action ops (like, follow, unfollow, comment,
	// post). Obtained from a login outcome.
	Token string `json:"token,omitempty"`

	// Target is the target account id for follow/unfollow.
	Target uint64 `json:"target,omitempty"`
	// Post is the target post id for like/comment.
	Post uint64 `json:"post,omitempty"`
	// Text is the comment body.
	Text string `json:"text,omitempty"`
	// Tags are the hashtags attached to a post op.
	Tags []string `json:"tags,omitempty"`

	// Username and Password drive register and login.
	Username string `json:"username,omitempty"`
	Password string `json:"password,omitempty"`
	// Country is the registering account's home country (register only;
	// defaults to USA).
	Country string `json:"country,omitempty"`
	// ASN, when nonzero, asks login to allocate the session's source
	// address from this autonomous system; zero means the server's
	// default residential ASN. An unregistered ASN fails with
	// CodeUnknownASN.
	ASN uint32 `json:"asn,omitempty"`
	// API is "private" (default; the reverse-engineered mobile API) or
	// "oauth" (the heavily rate-limited public API).
	API string `json:"api,omitempty"`
	// Client is the session's client fingerprint string (login only;
	// defaults to "wire-client").
	Client string `json:"client,omitempty"`
}

// Status is the wire mirror of platform.Outcome, plus StatusError for
// requests that failed before reaching the platform pipeline. The
// strings are frozen: clients switch on them.
type Status string

// Statuses.
const (
	StatusAllowed     Status = "allowed"
	StatusBlocked     Status = "blocked"
	StatusRateLimited Status = "rate-limited"
	StatusFailed      Status = "failed"
	StatusUnavailable Status = "unavailable"
	// StatusError marks envelope- or session-level failures (malformed
	// request, unknown token, overload); Code says which.
	StatusError Status = "error"
)

// StatusFor maps a platform outcome to its wire status. The mapping is
// total: an out-of-range outcome (impossible today, conceivable after a
// platform change) maps to StatusError rather than leaking the integer.
func StatusFor(o platform.Outcome) Status {
	switch o {
	case platform.OutcomeAllowed:
		return StatusAllowed
	case platform.OutcomeBlocked:
		return StatusBlocked
	case platform.OutcomeRateLimited:
		return StatusRateLimited
	case platform.OutcomeFailed:
		return StatusFailed
	case platform.OutcomeUnavailable:
		return StatusUnavailable
	default:
		return StatusError
	}
}

// Code is a machine-readable failure code. Empty means "no failure".
// Codes are frozen per wire version; new codes may be added in minor
// revisions, so clients must treat unknown codes as generic failures.
type Code string

// Error codes.
const (
	CodeNone Code = ""

	// Envelope-level rejections: decided from the bytes alone, before
	// the request reaches the world loop, and therefore never part of
	// the ingress log.
	CodeTooLarge     Code = "too_large"     // envelope exceeds MaxEnvelopeBytes
	CodeMalformed    Code = "malformed"     // not a JSON object of the envelope shape
	CodeBadVersion   Code = "bad_version"   // missing or unsupported "v"
	CodeUnknownOp    Code = "unknown_op"    // "op" not in Ops()
	CodeMissingField Code = "missing_field" // a field the op requires is absent
	CodeBadField     Code = "bad_field"     // a field is present but out of range

	// Admission rejections: the serving layer refused to enqueue.
	CodeOverloaded   Code = "overloaded"    // ingress queue full; retry later
	CodeShuttingDown Code = "shutting_down" // server is draining; no new work

	// State-dependent failures: decided in the world loop, logged, and
	// therefore reproduced exactly by an ingress-log replay.
	CodeUsernameTaken  Code = "username_taken"
	CodeBadCredentials Code = "bad_credentials"
	CodeUnknownToken   Code = "unknown_token"
	CodeSessionRevoked Code = "session_revoked"
	CodeUnknownASN     Code = "unknown_asn"
	CodeNotFound       Code = "not_found"
	CodeRateLimited    Code = "rate_limited"
	CodeBlocked        Code = "blocked"
	CodeUnavailable    Code = "unavailable"
	CodeAccountGone    Code = "account_gone"
	CodeInternal       Code = "internal"
)

// CodeForError maps a platform error to its wire code. Unknown errors
// map to CodeInternal: the wire surface never exposes raw Go error text
// as a contract.
func CodeForError(err error) Code {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, platform.ErrRateLimited):
		return CodeRateLimited
	case errors.Is(err, platform.ErrBlocked):
		return CodeBlocked
	case errors.Is(err, platform.ErrUnavailable):
		return CodeUnavailable
	case errors.Is(err, platform.ErrSessionRevoked):
		return CodeSessionRevoked
	case errors.Is(err, platform.ErrBadCredentials):
		return CodeBadCredentials
	case errors.Is(err, platform.ErrUsernameTaken):
		return CodeUsernameTaken
	case errors.Is(err, platform.ErrAccountGone):
		return CodeAccountGone
	case errors.Is(err, platform.ErrNoSession):
		return CodeUnknownToken
	default:
		return CodeNotFound
	}
}

// Error is a typed wire-level failure: a frozen Code plus a human detail
// string. It implements error so parser and server plumbing can return
// it directly.
type Error struct {
	Code   Code
	Detail string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Detail) }

// Errf builds an *Error with a formatted detail.
func Errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Outcome renders the error as a terminal outcome for the request id.
func (e *Error) Outcome(id uint64) Outcome {
	return Outcome{V: Version, ID: id, Status: StatusError, Code: e.Code, Detail: e.Detail}
}

// Outcome is the `/v1` response envelope: how a request fared. Status is
// always set; Code is set on any non-allowed terminal state that has a
// machine-readable cause.
type Outcome struct {
	V  int    `json:"v"`
	ID uint64 `json:"id,omitempty"`
	// Status is the terminal state of the request.
	Status Status `json:"status"`
	// Code carries the failure cause when Status is not "allowed".
	Code Code `json:"code,omitempty"`
	// Detail is a human-readable elaboration of Code. Informational
	// only: its text is not part of the wire contract.
	Detail string `json:"detail,omitempty"`
	// Applied reports whether an allowed action changed state; an
	// allowed structural no-op (re-follow, re-like) leaves it false.
	Applied bool `json:"applied,omitempty"`
	// Account is the created account id (register).
	Account uint64 `json:"account,omitempty"`
	// Post is the created post id (post).
	Post uint64 `json:"post,omitempty"`
	// Token is the session token (login).
	Token string `json:"token,omitempty"`
}

// ParseRequest decodes and validates one request envelope. The returned
// *Error is non-nil exactly when the envelope must be rejected; its Code
// is one of the envelope-level codes. On a validation failure the
// decoded envelope is still returned so callers can echo its ID in the
// error outcome. ParseRequest is a pure function of the bytes — it
// never consults world state — which is what keeps the ingress log free
// of unreplayable entries.
func ParseRequest(data []byte) (Request, *Error) {
	var req Request
	if len(data) > MaxEnvelopeBytes {
		return req, Errf(CodeTooLarge, "envelope is %d bytes (max %d)", len(data), MaxEnvelopeBytes)
	}
	if err := decodeRequest(data, &req); err != nil {
		return Request{}, Errf(CodeMalformed, "bad envelope: %v", err)
	}
	return req, req.Validate()
}

// Validate checks version, op, and the per-op required fields. It is
// exactly the validation ParseRequest applies; callers constructing
// Request values in Go can run it before encoding.
func (r *Request) Validate() *Error {
	if r.V != Version {
		return Errf(CodeBadVersion, "envelope version %d (this server speaks v%d)", r.V, Version)
	}
	switch r.Op {
	case OpRegister:
		if r.Username == "" || r.Password == "" {
			return Errf(CodeMissingField, "register requires username and password")
		}
	case OpLogin:
		if r.Username == "" || r.Password == "" {
			return Errf(CodeMissingField, "login requires username and password")
		}
		switch r.API {
		case "", "private", "oauth":
		default:
			return Errf(CodeBadField, "api %q (want private or oauth)", r.API)
		}
	case OpLike:
		if r.Token == "" {
			return Errf(CodeMissingField, "like requires token")
		}
		if r.Post == 0 {
			return Errf(CodeMissingField, "like requires post")
		}
	case OpFollow, OpUnfollow:
		if r.Token == "" {
			return Errf(CodeMissingField, "%s requires token", r.Op)
		}
		if r.Target == 0 {
			return Errf(CodeMissingField, "%s requires target", r.Op)
		}
	case OpComment:
		if r.Token == "" {
			return Errf(CodeMissingField, "comment requires token")
		}
		if r.Post == 0 {
			return Errf(CodeMissingField, "comment requires post")
		}
		if r.Text == "" {
			return Errf(CodeMissingField, "comment requires text")
		}
	case OpPost:
		if r.Token == "" {
			return Errf(CodeMissingField, "post requires token")
		}
		if len(r.Tags) > MaxTags {
			return Errf(CodeBadField, "%d tags (max %d)", len(r.Tags), MaxTags)
		}
	case "":
		return Errf(CodeUnknownOp, "envelope has no op")
	default:
		return Errf(CodeUnknownOp, "op %q", r.Op)
	}
	for _, f := range [...]struct{ name, v string }{
		{"username", r.Username}, {"password", r.Password}, {"country", r.Country},
		{"text", r.Text}, {"client", r.Client}, {"token", r.Token},
	} {
		if len(f.v) > MaxTextBytes {
			return Errf(CodeBadField, "%s is %d bytes (max %d)", f.name, len(f.v), MaxTextBytes)
		}
	}
	for _, t := range r.Tags {
		if t == "" || len(t) > MaxTextBytes {
			return Errf(CodeBadField, "tag length %d (want 1..%d)", len(t), MaxTextBytes)
		}
	}
	return nil
}

// APIKind resolves the request's API field to the platform enum.
// Validate has already constrained the string.
func (r *Request) APIKind() platform.APIKind {
	if r.API == "oauth" {
		return platform.APIOAuth
	}
	return platform.APIPrivate
}

// PlatformRequest converts an action envelope into the platform's
// Do(Request) envelope, minus the session (the serving layer resolves
// tokens to sessions itself). Only action ops have a platform mapping;
// identity ops (register, login) return false.
func (r *Request) PlatformRequest() (platform.Request, bool) {
	switch r.Op {
	case OpLike:
		return platform.Request{Action: platform.ActionLike, Post: platform.PostID(r.Post)}, true
	case OpFollow:
		return platform.Request{Action: platform.ActionFollow, Target: platform.AccountID(r.Target)}, true
	case OpUnfollow:
		return platform.Request{Action: platform.ActionUnfollow, Target: platform.AccountID(r.Target)}, true
	case OpComment:
		return platform.Request{Action: platform.ActionComment, Post: platform.PostID(r.Post), Text: r.Text}, true
	case OpPost:
		return platform.Request{Action: platform.ActionPost, Tags: r.Tags}, true
	default:
		return platform.Request{}, false
	}
}
