package registry

import "sync/atomic"

// Entry is one cached answer, the unit every tier holds and returns: the
// kind, the registry key and the decoded value, plus the byte forms the
// answer has been rendered in. An entry is immutable but for its forms,
// which are filled lazily, so each form is rendered at most once per
// entry however many requests read it. The LRU keeps the entry itself; the
// spool and the remote tier decode one per read, and a decoded entry
// starts with no forms — the bytes a tier read need not be the canonical
// rendering.
type Entry struct {
	Kind Kind
	Key  string
	Val  any

	forms [NumForms]atomic.Pointer[[]byte]
}

// Form names one byte form of an entry.
type Form uint8

const (
	// FormFile is the entry's interchange file (spool.Encoded): what the
	// spool persists and mctopd's /v1/export serves.
	FormFile Form = iota
	// FormJSON and FormItem are free for a server's response bodies.
	FormJSON
	FormItem

	// NumForms sizes an entry's form array.
	NumForms
)

// NewEntry wraps the value cached under key.
func NewEntry(kind Kind, key string, val any) *Entry {
	return &Entry{Kind: kind, Key: key, Val: val}
}

// Form returns form f, rendering it with render on first use. render must
// be a pure function of the entry: concurrent first uses may each render,
// and the first rendering stored is the one every caller gets.
func (e *Entry) Form(f Form, render func() ([]byte, error)) ([]byte, error) {
	if b := e.forms[f].Load(); b != nil {
		return *b, nil
	}
	b, err := render()
	if err != nil {
		return nil, err
	}
	e.forms[f].CompareAndSwap(nil, &b)
	return *e.forms[f].Load(), nil
}

// Rendered returns form f as last stored, or nil if it never was.
func (e *Entry) Rendered(f Form) []byte {
	if b := e.forms[f].Load(); b != nil {
		return *b
	}
	return nil
}

// SetRendered replaces form f, for a form that is not a pure function of
// the entry (mctopd keeps the last /v1/map body that answered a mapping).
func (e *Entry) SetRendered(f Form, b []byte) {
	e.forms[f].Store(&b)
}
