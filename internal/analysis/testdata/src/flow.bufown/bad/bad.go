// Package bad seeds every mutant of the zero-copy discipline the
// bufown analyzer must catch: removed clones, wrong gates, partial
// field clones, and retentions hidden behind helpers.
package bad

import "strings"

type fileBuf struct{ buf []byte }

func (w *fileBuf) String() string { return string(w.buf) }

type event struct {
	Class string
	Raw   string
}

type line struct {
	Class   string
	Message string
}

type parser struct {
	cloneMined bool
	events     []event
	flag       bool
}

var lastRaw string
var cache = map[string]string{}
var ch = make(chan string, 1)

// mutant 1: store a buffer view straight into a package variable.
func scanGlobal(w *fileBuf) {
	lastRaw = w.String() // want `stored into package variable lastRaw`
}

// mutant 2: store into a map that outlives every frame.
func scanMap(w *fileBuf) {
	raw := w.String()
	cache["last"] = raw // want `element store of package variable cache`
}

// mutant 3: send the view to another goroutine.
func scanChan(w *fileBuf) {
	raw := w.String()
	ch <- raw // want `sent on a channel`
}

func retain(s string) { lastRaw = s }

// mutant 4: the retention hides behind a helper call.
func scanHelper(w *fileBuf) {
	retain(w.String()) // want `passed to retain`
}

func stash(s string) { retain(s) }

// mutant 5: two hops deep.
func scanTwoHops(w *fileBuf) {
	stash(w.String()) // want `passed to stash`
}

func (p *parser) mineNoClone(ln line) {
	p.events = append(p.events, event{Class: ln.Class, Raw: ln.Message})
}

// mutant 6: the clone site was deleted outright.
func (p *parser) scanNoClone(w *fileBuf) {
	raw := w.String()
	ln := line{Class: raw[:1], Message: raw[1:]}
	p.mineNoClone(ln) // want `passed to mineNoClone`
}

// mutant 7: the clone runs under a condition that is not a declared
// gate, so on the other branch the view is retained raw.
func (p *parser) scanWrongGate(w *fileBuf) {
	msg := w.String()
	if p.flag {
		msg = strings.Clone(msg)
	}
	p.events = append(p.events, event{Raw: msg}) // want `field events of p`
}

func (p *parser) minePartial(ln line) {
	if p.cloneMined {
		ln.Class = strings.Clone(ln.Class)
	}
	p.events = append(p.events, event{Class: ln.Class, Raw: ln.Message})
}

// mutant 8: only one of the two retained fields is cloned.
func (p *parser) scanPartial(w *fileBuf) {
	raw := w.String()
	ln := line{Class: raw[:1], Message: raw[1:]}
	p.minePartial(ln) // want `passed to minePartial`
}

// mutant 9: the view escapes through a deferred closure.
func scanDeferred(w *fileBuf) {
	raw := w.String()
	defer func() {
		lastRaw = raw // want `stored into package variable lastRaw`
	}()
}

// mutant 10: a substring of the view still aliases the buffer.
func scanSlice(w *fileBuf) {
	raw := w.String()
	if len(raw) > 2 {
		cache["head"] = raw[:2] // want `element store of package variable cache`
	}
}
