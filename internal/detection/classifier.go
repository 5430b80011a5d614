// Package detection implements the platform side of the study: attribution
// of actions to AASs from request signals, customer identification over a
// measurement window, and the per-ASN activity thresholds that drive the
// intervention experiments (§5–§6.2).
package detection

import (
	"fmt"
	"slices"
	"sort"

	"footsteps/internal/netsim"
	"footsteps/internal/platform"
)

// Signature is the signal pair attribution keys on: the spoofed client
// fingerprint and the originating ASN. These are exactly the "commonly
// tracked information about the client" plus internal signals of §5.
type Signature struct {
	Fingerprint string
	ASN         netsim.ASN
}

// Classifier attributes platform requests to AAS labels. It is trained
// from honeypot ground truth: every event on an enrolled honeypot account
// is attributable to the linked service, so the signatures seen there
// label the service's entire traffic.
//
// Attribution keys on the client fingerprint: a service that moves its
// traffic to new address space (the §6.4 proxy evasion) remains
// *attributable* — the platform still sees whose traffic it is — but the
// ASN-keyed intervention thresholds no longer reach it, exactly the
// asymmetry the paper's epilogue reports. The full (fingerprint, ASN)
// signatures are retained for the Table 7 footprint analysis.
//
// Note the Insta* effect: Instalex and Instazood share infrastructure, so
// both honeypot sets teach the same signature and the classifier can only
// produce the merged label — the simulation reproduces the paper's
// inability to separate the franchises.
type Classifier struct {
	rules map[Signature]string
	// byFP maps a fingerprint to its label's index in labels, so the
	// tracker resolves an event to its service row with one probe.
	byFP   map[string]int
	labels []string // distinct learned labels, in learning order
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{rules: make(map[Signature]string), byFP: make(map[string]int)}
}

// Learn associates a signature with an AAS label.
func (c *Classifier) Learn(sig Signature, label string) {
	c.rules[sig] = label
	i := slices.Index(c.labels, label)
	if i < 0 {
		i = len(c.labels)
		c.labels = append(c.labels, label)
	}
	c.byFP[sig.Fingerprint] = i
}

// TrainFromHoneypots ingests events observed on honeypot accounts.
// enrolledWith maps a honeypot account to the label of the service holding
// its credentials ("" = not enrolled). Only automation-shaped traffic is
// learned: events whose actor is an enrolled honeypot and whose
// fingerprint differs from the stock mobile client.
func (c *Classifier) TrainFromHoneypots(events []platform.Event, enrolledWith func(platform.AccountID) string) {
	for _, ev := range events {
		if ev.Type == platform.ActionLogin {
			continue
		}
		label := enrolledWith(ev.Actor)
		if label == "" || ev.Client == "mobile-official" || ev.Enforcement {
			continue
		}
		c.Learn(Signature{Fingerprint: ev.Client, ASN: ev.ASN}, label)
	}
}

// Classify attributes one event. The second result is false for traffic
// matching no learned fingerprint.
func (c *Classifier) Classify(ev platform.Event) (string, bool) {
	i, ok := c.byFP[ev.Client]
	if !ok {
		return "", false
	}
	return c.labels[i], true
}

// Labels returns the distinct service labels the classifier knows, sorted.
func (c *Classifier) Labels() []string {
	seen := make([]bool, len(c.labels))
	for _, i := range c.byFP {
		seen[i] = true
	}
	out := make([]string, 0, len(c.labels))
	for i, l := range c.labels {
		if seen[i] {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// Signatures returns the learned signatures for a label, sorted for
// deterministic output.
func (c *Classifier) Signatures(label string) []Signature {
	var out []Signature
	for sig, l := range c.rules {
		if l == label {
			out = append(out, sig)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fingerprint != out[j].Fingerprint {
			return out[i].Fingerprint < out[j].Fingerprint
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// ASNsFor returns the distinct ASNs a label's traffic originates from —
// the Table 7 "ASN location" column feeds from this.
func (c *Classifier) ASNsFor(label string) []netsim.ASN {
	seen := make(map[netsim.ASN]bool)
	for sig, l := range c.rules {
		if l == label {
			seen[sig.ASN] = true
		}
	}
	out := make([]netsim.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s Signature) String() string {
	return fmt.Sprintf("%s@AS%d", s.Fingerprint, s.ASN)
}
