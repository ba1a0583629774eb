package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"opmsim/internal/waveform"
)

// Deck is a parsed netlist plus its analysis directives.
type Deck struct {
	Title   string
	Netlist *Netlist
	// Tran holds the ".tran step stop" directive if present.
	Tran *TranDirective
	// ICs holds ".ic node=value" initial node voltages (node name → volts).
	ICs map[string]float64
}

// TranDirective is a ".tran <step> <stop>" analysis request.
type TranDirective struct {
	Step, Stop float64
}

// Span resolves a transient run's span T and column count m. A non-nil stop
// overrides the .tran stop time and steps > 0 the column count, which
// otherwise comes from .tran (stop/step, rounded) or defaults to 512. T must
// come out positive and finite and m at least 1.
func (d *Deck) Span(stop *float64, steps int) (T float64, m int, err error) {
	switch {
	case stop != nil:
		T = *stop
	case d.Tran != nil:
		T = d.Tran.Stop
	default:
		return 0, 0, fmt.Errorf("no stop time given and no .tran directive in the netlist")
	}
	if math.IsNaN(T) || math.IsInf(T, 0) || T <= 0 {
		return 0, 0, fmt.Errorf("stop time must be positive and finite, got %g", T)
	}
	m = steps
	if m == 0 {
		m = 512
		if d.Tran != nil {
			m = int(d.Tran.Stop/d.Tran.Step + 0.5)
		}
	}
	if m < 1 {
		return 0, 0, fmt.Errorf("steps must be >= 1, got %d", m)
	}
	return T, m, nil
}

// Parse reads a SPICE-flavoured netlist. Supported cards:
//
//	R<name> a b value
//	C<name> a b value
//	L<name> a b value
//	P<name> a b value alpha          (constant-phase element)
//	D<name> a b Is [Vt]              (junction diode; 0 = defaults)
//	G<name> a b c d gm               (VCCS: gm·(v_c−v_d) from a to b)
//	E<name> a b c d gain             (VCVS: v_a−v_b = gain·(v_c−v_d))
//	V<name> a b DC v | STEP v [t0] | SIN v0 va freq [phase]
//	        | PULSE v1 v2 td tr tf pw [per] | PWL t1 v1 t2 v2 ...
//	I<name> a b <same source forms>
//	K<name> L1 L2 k                  (mutual inductance)
//	X<inst> n1 n2 ... subname        (subcircuit instance)
//	.subckt name p1 p2 ... / .ends   (subcircuit definition)
//	.tran step stop
//	.end
//
// The first line is the title; '*' starts a comment; values accept SPICE
// magnitude suffixes (f p n u m k meg g t). Subcircuit internals are
// flattened with an "@<inst>" suffix on element and node names.
func Parse(r io.Reader) (*Deck, error) {
	sc := bufio.NewScanner(r)
	p := &parser{deck: &Deck{Netlist: New()}, defs: map[string]*subcktDef{}}
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			// SPICE convention: the first line is the title unless it looks
			// like a card already.
			if line != "" && !strings.HasPrefix(line, "*") && !looksLikeCard(line) {
				p.deck.Title = line
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
			if line == "" {
				continue
			}
		}
		// Normalize parentheses so "PULSE(0 1 ...)" tokenizes cleanly.
		line = strings.NewReplacer("(", " ", ")", " ", ",", " ").Replace(line)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue // line held only punctuation
		}
		if err := p.card(fields); err != nil {
			return nil, fmt.Errorf("circuit: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("circuit: reading netlist: %w", err)
	}
	if p.collecting != nil {
		return nil, fmt.Errorf("circuit: unterminated .subckt %q", p.collectName)
	}
	return p.deck, nil
}

// parser carries deck state across cards: subcircuit definitions and the
// in-progress .subckt collection.
type parser struct {
	deck        *Deck
	defs        map[string]*subcktDef
	collecting  *subcktDef
	collectName string
	depth       int
}

// subcktDef is a parsed .subckt body: port names plus the raw cards between
// .subckt and .ends.
type subcktDef struct {
	ports []string
	cards [][]string
}

// card routes one tokenized line, honoring .subckt collection mode.
func (p *parser) card(f []string) error {
	upper := strings.ToUpper(f[0])
	switch {
	case upper == ".SUBCKT":
		if p.collecting != nil {
			return fmt.Errorf("nested .subckt definitions are not supported")
		}
		if len(f) < 3 {
			return fmt.Errorf(".subckt needs a name and at least one port")
		}
		name := strings.ToLower(f[1])
		if _, dup := p.defs[name]; dup {
			return fmt.Errorf("duplicate .subckt %q", f[1])
		}
		p.collecting = &subcktDef{ports: append([]string(nil), f[2:]...)}
		p.collectName = name
		return nil
	case upper == ".ENDS":
		if p.collecting == nil {
			return fmt.Errorf(".ends without .subckt")
		}
		p.defs[p.collectName] = p.collecting
		p.collecting = nil
		return nil
	case p.collecting != nil:
		if strings.HasPrefix(upper, ".") {
			return fmt.Errorf("directive %s not allowed inside .subckt", f[0])
		}
		p.collecting.cards = append(p.collecting.cards, append([]string(nil), f...))
		return nil
	case upper[0] == 'X':
		return p.expand(f)
	}
	return parseCard(p.deck, f)
}

// expand instantiates a subcircuit: "X<inst> n1 n2 ... subname". Ports bind
// to the caller's nodes; internal nodes and element names get a "@<inst>"
// suffix (suffix rather than prefix so the leading kind letter survives).
func (p *parser) expand(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("X card %q needs nodes and a subckt name", f[0])
	}
	inst := f[0]
	subName := strings.ToLower(f[len(f)-1])
	def, ok := p.defs[subName]
	if !ok {
		return fmt.Errorf("unknown subckt %q", f[len(f)-1])
	}
	given := f[1 : len(f)-1]
	if len(given) != len(def.ports) {
		return fmt.Errorf("%s: subckt %q has %d ports, got %d nodes", inst, subName, len(def.ports), len(given))
	}
	if p.depth >= 8 {
		return fmt.Errorf("%s: subckt nesting deeper than 8", inst)
	}
	portMap := make(map[string]string, len(given))
	for i, pn := range def.ports {
		portMap[pn] = given[i]
	}
	mapNode := func(nm string) string {
		if nm == "0" || nm == "gnd" || nm == "GND" {
			return nm
		}
		if bound, ok := portMap[nm]; ok {
			return bound
		}
		return nm + "@" + inst
	}
	p.depth++
	defer func() { p.depth-- }()
	for _, card := range def.cards {
		g := append([]string(nil), card...)
		g[0] = g[0] + "@" + inst
		switch strings.ToUpper(card[0][:1]) {
		case "K":
			// Fields 1, 2 are inductor names inside this instance.
			if len(g) >= 3 {
				g[1] += "@" + inst
				g[2] += "@" + inst
			}
		case "G", "E":
			for _, i := range []int{1, 2, 3, 4} {
				if i < len(g) {
					g[i] = mapNode(g[i])
				}
			}
		case "X":
			// Nested instance: remap its port bindings, then recurse.
			for i := 1; i < len(g)-1; i++ {
				g[i] = mapNode(g[i])
			}
			if err := p.expand(g); err != nil {
				return err
			}
			continue
		default:
			for _, i := range []int{1, 2} {
				if i < len(g) {
					g[i] = mapNode(g[i])
				}
			}
		}
		if err := p.card(g); err != nil {
			return fmt.Errorf("in %s (subckt %s): %w", inst, subName, err)
		}
	}
	return nil
}

// looksLikeCard guesses whether a first line is a card rather than a title:
// directives always are; element cards need a known leading letter and at
// least the name/node/node/value fields.
func looksLikeCard(line string) bool {
	if strings.HasPrefix(line, ".") {
		return true
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return false
	}
	switch strings.ToUpper(line[:1]) {
	case "R", "C", "L", "V", "I", "P", "G", "E", "D", "K":
		return true
	}
	return false
}

func parseCard(deck *Deck, f []string) error {
	n := deck.Netlist
	card := strings.ToUpper(f[0])
	switch {
	case strings.HasPrefix(card, "."):
		switch card {
		case ".END":
			return nil
		case ".TRAN":
			if len(f) < 3 {
				return fmt.Errorf(".tran needs step and stop")
			}
			step, err := ParseValue(f[1])
			if err != nil {
				return err
			}
			stop, err := ParseValue(f[2])
			if err != nil {
				return err
			}
			if step <= 0 || stop <= 0 || step > stop {
				return fmt.Errorf(".tran values invalid: step=%g stop=%g", step, stop)
			}
			deck.Tran = &TranDirective{Step: step, Stop: stop}
			return nil
		case ".IC":
			// .ic node=value [node=value ...]
			if len(f) < 2 {
				return fmt.Errorf(".ic needs node=value pairs")
			}
			if deck.ICs == nil {
				deck.ICs = map[string]float64{}
			}
			for _, pair := range f[1:] {
				eq := strings.IndexByte(pair, '=')
				if eq <= 0 || eq == len(pair)-1 {
					return fmt.Errorf(".ic entry %q is not node=value", pair)
				}
				v, err := ParseValue(pair[eq+1:])
				if err != nil {
					return err
				}
				deck.ICs[pair[:eq]] = v
			}
			return nil
		default:
			return fmt.Errorf("unsupported directive %s", f[0])
		}
	case len(f) < 4:
		return fmt.Errorf("element card %q needs at least 4 fields", f[0])
	}
	name := f[0]
	if card[:1] == "K" {
		// K<name> L1 L2 k — the middle fields are inductor names, not
		// nodes, so they must not be interned.
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		return n.AddK(name, f[1], f[2], v)
	}
	a, b := n.Node(f[1]), n.Node(f[2])
	switch card[:1] {
	case "R":
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		return n.AddR(name, a, b, v)
	case "C":
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		return n.AddC(name, a, b, v)
	case "L":
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		return n.AddL(name, a, b, v)
	case "P":
		if len(f) < 5 {
			return fmt.Errorf("CPE %q needs value and order", name)
		}
		v, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		alpha, err := ParseValue(f[4])
		if err != nil {
			return err
		}
		return n.AddCPE(name, a, b, v, alpha)
	case "V", "I":
		src, err := parseSource(f[3:])
		if err != nil {
			return fmt.Errorf("source %q: %w", name, err)
		}
		if card[:1] == "V" {
			return n.AddV(name, a, b, src)
		}
		return n.AddI(name, a, b, src)
	case "D":
		// D<name> a b [Is] [Vt] — defaults DefaultIs/DefaultVt. The 4th
		// field is optional, so len(f) may be 3 here only if the generic
		// arity check passed; it requires ≥4 fields, so Is is present or
		// the card simply reads "D1 a b 0" to take defaults.
		is, err := ParseValue(f[3])
		if err != nil {
			return err
		}
		vt := 0.0
		if len(f) >= 5 {
			vt, err = ParseValue(f[4])
			if err != nil {
				return err
			}
		}
		return n.AddDiode(name, a, b, is, vt)
	case "G", "E":
		if len(f) < 6 {
			return fmt.Errorf("controlled source %q needs n+ n- nc+ nc- value", name)
		}
		c, d := n.Node(f[3]), n.Node(f[4])
		v, err := ParseValue(f[5])
		if err != nil {
			return err
		}
		if card[:1] == "G" {
			return n.AddVCCS(name, a, b, c, d, v)
		}
		return n.AddVCVS(name, a, b, c, d, v)
	default:
		return fmt.Errorf("unknown element card %q", f[0])
	}
}

func parseSource(f []string) (waveform.Signal, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("missing source specification")
	}
	kind := strings.ToUpper(f[0])
	args := make([]float64, 0, len(f)-1)
	for _, s := range f[1:] {
		v, err := ParseValue(s)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	switch kind {
	case "DC":
		if len(args) != 1 {
			return nil, fmt.Errorf("DC needs one value")
		}
		return waveform.Constant(args[0]), nil
	case "STEP":
		switch len(args) {
		case 1:
			return waveform.Step(args[0], 0), nil
		case 2:
			return waveform.Step(args[0], args[1]), nil
		}
		return nil, fmt.Errorf("STEP needs 1 or 2 values")
	case "SIN":
		switch len(args) {
		case 3:
			off, amp, freq := args[0], args[1], args[2]
			s := waveform.Sine(amp, freq, 0)
			return func(t float64) float64 { return off + s(t) }, nil
		case 4:
			off, amp, freq, ph := args[0], args[1], args[2], args[3]
			s := waveform.Sine(amp, freq, ph)
			return func(t float64) float64 { return off + s(t) }, nil
		}
		return nil, fmt.Errorf("SIN needs 3 or 4 values")
	case "PULSE":
		switch len(args) {
		case 6:
			return waveform.Pulse(args[0], args[1], args[2], args[3], args[4], args[5], 0), nil
		case 7:
			return waveform.Pulse(args[0], args[1], args[2], args[3], args[4], args[5], args[6]), nil
		}
		return nil, fmt.Errorf("PULSE needs 6 or 7 values")
	case "PWL":
		if len(args) < 2 || len(args)%2 != 0 {
			return nil, fmt.Errorf("PWL needs an even number of values")
		}
		ts := make([]float64, len(args)/2)
		vs := make([]float64, len(args)/2)
		for i := range ts {
			ts[i], vs[i] = args[2*i], args[2*i+1]
		}
		return waveform.PWL(ts, vs)
	default:
		// Bare number: DC source.
		v, err := ParseValue(f[0])
		if err != nil {
			return nil, fmt.Errorf("unknown source kind %q", f[0])
		}
		return waveform.Constant(v), nil
	}
}

// ParseValue parses a SPICE magnitude: a float with an optional suffix among
// f, p, n, u, m, k, meg, g, t (case-insensitive); trailing unit letters such
// as "ohm" or "F" after the suffix are ignored.
func ParseValue(s string) (float64, error) {
	low := strings.ToLower(strings.TrimSpace(s))
	if low == "" {
		return 0, fmt.Errorf("empty value")
	}
	// Split numeric prefix.
	i := 0
	for i < len(low) {
		ch := low[i]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '+' || ch == '-' ||
			(ch == 'e' && i+1 < len(low) && (low[i+1] == '+' || low[i+1] == '-' || (low[i+1] >= '0' && low[i+1] <= '9'))) {
			if ch == 'e' {
				i += 2
				continue
			}
			i++
			continue
		}
		break
	}
	num, rest := low[:i], low[i:]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	mult := 1.0
	switch {
	case rest == "":
	case strings.HasPrefix(rest, "meg"):
		mult = 1e6
	case strings.HasPrefix(rest, "mil"):
		mult = 25.4e-6
	case rest[0] == 'f':
		mult = 1e-15
	case rest[0] == 'p':
		mult = 1e-12
	case rest[0] == 'n':
		mult = 1e-9
	case rest[0] == 'u':
		mult = 1e-6
	case rest[0] == 'm':
		mult = 1e-3
	case rest[0] == 'k':
		mult = 1e3
	case rest[0] == 'g':
		mult = 1e9
	case rest[0] == 't':
		mult = 1e12
	default:
		// Unit letters like "ohm", "v", "a", "hz", "h", "s": no scaling.
		// 'h' (henry), 'v', 'a', 'o', 's' are safe; anything else is a typo.
		switch rest[0] {
		case 'h', 'v', 'a', 'o', 's':
		default:
			return 0, fmt.Errorf("unknown magnitude suffix %q in %q", rest, s)
		}
	}
	out := v * mult
	if math.IsInf(out, 0) {
		return 0, fmt.Errorf("value %q overflows", s)
	}
	return out, nil
}
