// Package good mirrors the zero-copy mining discipline of
// internal/core: every retention of fileBuf-derived memory passes
// through a sanctioned clone (strings.Clone, fmt.Sprintf) or the
// cloneMined gate.
package good

import (
	"fmt"
	"strings"
)

// fileBuf mirrors internal/core's reusable read buffer: String
// returns a view of memory the next file overwrites, so the ownership
// manifest declares it a taint source.
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
	warns      []string
}

func parseLine(seg string) line {
	return line{Class: seg[:1], Message: seg[1:]}
}

func (p *parser) emit(e event) { p.events = append(p.events, e) }

func (p *parser) warnf(format string, args ...any) {
	p.warns = append(p.warns, fmt.Sprintf(format, args...))
}

// mine is the sanctioned gated-clone discipline: under cloneMined, the
// strings that will be retained are cloned before emit.
func (p *parser) mine(ln line) {
	msg := ln.Message
	if p.cloneMined {
		msg = strings.Clone(msg)
		ln.Class = strings.Clone(ln.Class)
	}
	p.emit(event{Class: ln.Class, Raw: msg})
}

func (p *parser) scan(w *fileBuf) {
	p.cloneMined = true
	defer func() { p.cloneMined = false }()
	raw := w.String()
	for i := 0; i+2 < len(raw); i += 2 {
		ln := parseLine(raw[i : i+2])
		p.mine(ln)
	}
}

// containerScan mirrors internal/core's per-file container state: the
// first line is kept across the walk and emitted as FIRST_LOG when the
// walk ends, so under cloneMined it is cloned when it is captured.
type containerScan struct {
	hasFirst             bool
	firstClass, firstRaw string
}

func (cs *containerScan) add(p *parser, ln line) {
	if !cs.hasFirst {
		class, msg := ln.Class, ln.Message
		if p.cloneMined {
			class, msg = strings.Clone(class), strings.Clone(msg)
		}
		cs.hasFirst, cs.firstClass, cs.firstRaw = true, class, msg
	}
}

func (cs *containerScan) finish(p *parser) {
	if cs.hasFirst {
		p.emit(event{Class: cs.firstClass, Raw: cs.firstRaw})
	}
}

// scanContainer walks a container log: one first-line event per file.
func (p *parser) scanContainer(w *fileBuf) {
	p.cloneMined = true
	defer func() { p.cloneMined = false }()
	raw := w.String()
	var cs containerScan
	for i := 0; i+2 < len(raw); i += 2 {
		cs.add(p, parseLine(raw[i:i+2]))
	}
	cs.finish(p)
}

// scanCount only derives scalars from the buffer: nothing to clone.
func (p *parser) scanCount(w *fileBuf) int {
	raw := w.String()
	n := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\n' {
			n++
		}
	}
	return n
}

// scanWarn retains only Sprintf output, which copies its operands.
func (p *parser) scanWarn(w *fileBuf) {
	raw := w.String()
	if len(raw) == 0 {
		p.warnf("empty blob: %s", raw)
	}
}

// scanConvert round-trips through []byte, which copies both ways.
func (p *parser) scanConvert(w *fileBuf) {
	bs := []byte(w.String())
	p.emit(event{Raw: string(bs)})
}

// scanLocal keeps buffer views in frame-local state only.
func scanLocal(w *fileBuf) string {
	raw := w.String()
	var parts []string
	for i := 0; i+1 < len(raw); i += 2 {
		parts = append(parts, raw[i:i+2])
	}
	return strings.Join(parts, ",") // Join allocates a fresh string
}
