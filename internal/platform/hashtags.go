package platform

import "footsteps/internal/intern"

// hashtagIndex tracks recent posts per hashtag. Real feeds expose roughly
// this surface: given a tag, fetch the most recent media — which is
// exactly the discovery API the reciprocity AASs crawl when a customer
// supplies a hashtag list (§3.3.1).
type hashtagIndex struct {
	byTag  map[string]*tagRing
	keepup int
}

// tagRing is a bounded ring of the newest posts for one tag.
type tagRing struct {
	posts []PostID
	next  int
	full  bool
}

const defaultTagKeep = 256

func newHashtagIndex() *hashtagIndex {
	return &hashtagIndex{byTag: make(map[string]*tagRing), keepup: defaultTagKeep}
}

func (h *hashtagIndex) add(tag string, pid PostID) {
	if tag == "" {
		return
	}
	r := h.byTag[tag]
	if r == nil {
		// New tags are rare (campaign tag pools are small and fixed);
		// intern the map key so the index holds the canonical copy and
		// never pins a caller's larger backing array.
		r = &tagRing{posts: make([]PostID, h.keepup)}
		h.byTag[intern.String(tag)] = r
	}
	r.posts[r.next] = pid
	r.next++
	if r.next == len(r.posts) {
		r.next = 0
		r.full = true
	}
}

// recent returns up to k of the newest posts for tag, newest first.
func (h *hashtagIndex) recent(tag string, k int) []PostID {
	return h.appendRecent(nil, tag, k)
}

// appendRecent appends up to k of the newest posts for tag to dst,
// newest first, and returns the extended slice. Callers that crawl tag
// feeds every tick pass a reused buffer to avoid per-query allocation.
func (h *hashtagIndex) appendRecent(dst []PostID, tag string, k int) []PostID {
	r := h.byTag[tag]
	if r == nil || k <= 0 {
		return dst
	}
	n := r.next
	if r.full {
		n = len(r.posts)
	}
	if k > n {
		k = n
	}
	idx := r.next - 1
	for ; k > 0; k-- {
		if idx < 0 {
			idx = len(r.posts) - 1
		}
		dst = append(dst, r.posts[idx])
		idx--
	}
	return dst
}

// TagPost associates hashtags with an existing post of account id, as if
// they were part of the caption. World-building code uses this to tag
// profile-seed photos; live posts carry tags on the post Request.
func (p *Platform) TagPost(id AccountID, pid PostID, tags ...string) error {
	p.phase.CheckWrite("platform.TagPost")
	author, ok := p.PostAuthor(pid)
	if !ok || author != id {
		return ErrAccountGone
	}
	for _, t := range tags {
		p.tags.add(t, pid)
	}
	return nil
}

// RecentByTag returns up to k of the newest posts carrying the tag —
// the hashtag discovery surface AASs crawl for targeting.
func (p *Platform) RecentByTag(tag string, k int) []PostID {
	return p.tags.recent(tag, k)
}

// AppendRecentByTag is RecentByTag appending into dst (reusing its
// capacity) — the allocation-free variant for per-tick crawlers.
func (p *Platform) AppendRecentByTag(dst []PostID, tag string, k int) []PostID {
	return p.tags.appendRecent(dst, tag, k)
}
