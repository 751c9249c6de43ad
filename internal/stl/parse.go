package stl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse builds a Formula from its concrete syntax. Grammar (whitespace
// insensitive, '#' starts a comment to end of line):
//
//	formula  := until ( '->' formula )?            // right associative
//	until    := or ( ('U' | 'R') interval? or )?
//	or       := and ( ('||' | 'or') and )*
//	and      := unary ( ('&&' | 'and') unary )*
//	unary    := '!' unary
//	         | ('G' | 'always')     interval? unary
//	         | ('F' | 'eventually') interval? unary
//	         | 'X' unary
//	         | '(' formula ')'
//	         | 'true' | 'false'
//	         | atom
//	atom     := ident cmp number
//	cmp      := '<' | '<=' | '>' | '>=' | '==' | '!='
//	interval := '[' number ',' (number | 'inf') ']'
//
// Example: "G[0,5000](ipc > 0.4) -> F[0,1000](l2_mpki < 3)".
func Parse(input string) (Formula, error) {
	p := &parser{toks: lex(input)}
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("stl: unexpected trailing input at %q", p.peek().text)
	}
	return f, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokCmp    // < <= > >= == !=
	tokAndOp  // &&
	tokOrOp   // ||
	tokNotOp  // !
	tokArrow  // ->
	tokLParen // (
	tokRParen // )
	tokLBrack // [
	tokRBrack // ]
	tokComma  // ,
	tokBad
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(s string) []token {
	var toks []token
	i := 0
	emit := func(k tokKind, text string) { toks = append(toks, token{k, text, i}) }
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '#':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == '(':
			emit(tokLParen, "(")
			i++
		case c == ')':
			emit(tokRParen, ")")
			i++
		case c == '[':
			emit(tokLBrack, "[")
			i++
		case c == ']':
			emit(tokRBrack, "]")
			i++
		case c == ',':
			emit(tokComma, ",")
			i++
		case c == '&':
			if i+1 < len(s) && s[i+1] == '&' {
				emit(tokAndOp, "&&")
				i += 2
			} else {
				emit(tokBad, "&")
				i++
			}
		case c == '|':
			if i+1 < len(s) && s[i+1] == '|' {
				emit(tokOrOp, "||")
				i += 2
			} else {
				emit(tokBad, "|")
				i++
			}
		case c == '-':
			if i+1 < len(s) && s[i+1] == '>' {
				emit(tokArrow, "->")
				i += 2
			} else if i+1 < len(s) && (isDigit(s[i+1]) || s[i+1] == '.') {
				j := scanNumber(s, i+1)
				emit(tokNumber, s[i:j])
				i = j
			} else {
				emit(tokBad, "-")
				i++
			}
		case c == '!':
			if i+1 < len(s) && s[i+1] == '=' {
				emit(tokCmp, "!=")
				i += 2
			} else {
				emit(tokNotOp, "!")
				i++
			}
		case c == '<' || c == '>':
			if i+1 < len(s) && s[i+1] == '=' {
				emit(tokCmp, s[i:i+2])
				i += 2
			} else {
				emit(tokCmp, string(c))
				i++
			}
		case c == '=':
			if i+1 < len(s) && s[i+1] == '=' {
				emit(tokCmp, "==")
				i += 2
			} else {
				emit(tokBad, "=")
				i++
			}
		case isDigit(c) || c == '.':
			j := scanNumber(s, i)
			emit(tokNumber, s[i:j])
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(s) && isIdentPart(rune(s[j])) {
				j++
			}
			emit(tokIdent, s[i:j])
			i = j
		default:
			emit(tokBad, string(c))
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", i})
	return toks
}

func scanNumber(s string, i int) int {
	j := i
	for j < len(s) && (isDigit(s[j]) || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
		((s[j] == '+' || s[j] == '-') && j > i && (s[j-1] == 'e' || s[j-1] == 'E'))) {
		j++
	}
	return j
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEnd() bool { return p.peek().kind == tokEOF }

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("stl: expected %s at position %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

func (p *parser) parseFormula() (Formula, error) {
	left, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokArrow {
		p.next()
		right, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		return Implies{A: left, B: right}, nil
	}
	return left, nil
}

func (p *parser) parseUntil() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokIdent && (t.text == "U" || t.text == "R") {
		p.next()
		iv, err := p.parseOptionalInterval()
		if err != nil {
			return nil, err
		}
		right, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t.text == "R" {
			return Release{I: iv, A: left, B: right}, nil
		}
		return Until{I: iv, A: left, B: right}, nil
	}
	return left, nil
}

func (p *parser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	var fs []Formula
	for {
		t := p.peek()
		if t.kind == tokOrOp || (t.kind == tokIdent && t.text == "or") {
			p.next()
			right, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			if fs == nil {
				fs = []Formula{left}
			}
			fs = append(fs, right)
			continue
		}
		break
	}
	if fs == nil {
		return left, nil
	}
	return Or{Fs: fs}, nil
}

func (p *parser) parseAnd() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	var fs []Formula
	for {
		t := p.peek()
		if t.kind == tokAndOp || (t.kind == tokIdent && t.text == "and") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if fs == nil {
				fs = []Formula{left}
			}
			fs = append(fs, right)
			continue
		}
		break
	}
	if fs == nil {
		return left, nil
	}
	return And{Fs: fs}, nil
}

func (p *parser) parseUnary() (Formula, error) {
	t := p.peek()
	switch {
	case t.kind == tokNotOp:
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	case t.kind == tokLParen:
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil
	case t.kind == tokIdent:
		switch t.text {
		case "true":
			p.next()
			return Const(true), nil
		case "false":
			p.next()
			return Const(false), nil
		case "G", "always":
			p.next()
			iv, err := p.parseOptionalInterval()
			if err != nil {
				return nil, err
			}
			f, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return Globally{I: iv, F: f}, nil
		case "F", "eventually":
			p.next()
			iv, err := p.parseOptionalInterval()
			if err != nil {
				return nil, err
			}
			f, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return Eventually{I: iv, F: f}, nil
		case "X", "next":
			p.next()
			f, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return Next{F: f}, nil
		default:
			return p.parseAtom()
		}
	default:
		return nil, fmt.Errorf("stl: unexpected token %q at position %d", t.text, t.pos)
	}
}

func (p *parser) parseAtom() (Formula, error) {
	id, err := p.expect(tokIdent, "signal name")
	if err != nil {
		return nil, err
	}
	cmp, err := p.expect(tokCmp, "comparison operator")
	if err != nil {
		return nil, err
	}
	num, err := p.expect(tokNumber, "number")
	if err != nil {
		return nil, err
	}
	thr, err := strconv.ParseFloat(num.text, 64)
	if err != nil {
		return nil, fmt.Errorf("stl: bad number %q: %v", num.text, err)
	}
	var op CmpOp
	switch cmp.text {
	case "<":
		op = LT
	case "<=":
		op = LE
	case ">":
		op = GT
	case ">=":
		op = GE
	case "==":
		op = EQ
	case "!=":
		op = NE
	}
	return Atom{Signal: id.text, Op: op, Threshold: thr}, nil
}

func (p *parser) parseOptionalInterval() (Interval, error) {
	if p.peek().kind != tokLBrack {
		return Whole, nil
	}
	p.next()
	lo, err := p.parseNumberOrInf()
	if err != nil {
		return Interval{}, err
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return Interval{}, err
	}
	hi, err := p.parseNumberOrInf()
	if err != nil {
		return Interval{}, err
	}
	if _, err := p.expect(tokRBrack, "']'"); err != nil {
		return Interval{}, err
	}
	iv := Interval{Lo: lo, Hi: hi}
	if !iv.valid() {
		return Interval{}, fmt.Errorf("stl: invalid interval [%g,%g]", lo, hi)
	}
	return iv, nil
}

func (p *parser) parseNumberOrInf() (float64, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, fmt.Errorf("stl: bad number %q", t.text)
		}
		return v, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "inf"):
		return math.Inf(1), nil
	default:
		return 0, fmt.Errorf("stl: expected number at position %d, got %q", t.pos, t.text)
	}
}
