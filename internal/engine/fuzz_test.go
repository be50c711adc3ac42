package engine

import (
	"regexp"
	"strings"
	"testing"

	"kwsdbg/internal/invidx"
)

// likeToRegexp is the differential oracle for likeMatch: translate the LIKE
// pattern into an anchored regular expression.
func likeToRegexp(pattern string) *regexp.Regexp {
	var sb strings.Builder
	sb.WriteString(`(?s)\A`)
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(`.*`)
		case '_':
			sb.WriteString(`.`)
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString(`\z`)
	return regexp.MustCompile(sb.String())
}

// FuzzLikeMatch checks likeMatch against the regexp translation.
func FuzzLikeMatch(f *testing.F) {
	f.Add("%candle%", "red candle")
	f.Add("a_c%z", "abcdz")
	f.Add("%%", "")
	f.Add("", "x")
	f.Add("_", "é")
	f.Add("%a%b%c%", "xxaxbxc")
	f.Add("", "")        // empty pattern
	f.Add("%", "é")      // wildcard-only over multi-byte input
	f.Add("%世界", "你好世界") // multi-byte runes at pattern boundaries
	f.Add("_é_", "xéy")
	f.Add("%ß%", "straße")
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if len(pattern) > 64 || len(s) > 256 {
			return // keep the backtracking oracle cheap
		}
		got := likeMatch(pattern, s)
		want := likeToRegexp(pattern).MatchString(s)
		if got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, regexp says %v", pattern, s, got, want)
		}
	})
}

// FuzzContainsToken checks the allocation-free fast path against the
// tokenizer-based definition.
func FuzzContainsToken(f *testing.F) {
	f.Add("saffron scented oil", "saffron")
	f.Add("hand-made. 2pck!", "2pck")
	f.Add("ÜBER graph", "über")
	f.Add("", "")
	f.Add("ab", "abc")
	f.Add("ΣΟΦΙΑ works", "σοφια") // case folding over multi-byte letters
	f.Add("café-au-lait", "café") // multi-byte rune at a token boundary
	f.Add("naïve—idea", "idea")   // multi-byte delimiter
	f.Add("v1.2 release", "2")
	f.Fuzz(func(t *testing.T, cell, keyword string) {
		toks := invidx.Tokenize(keyword)
		if len(toks) != 1 {
			return
		}
		token := toks[0]
		want := false
		for _, ct := range invidx.Tokenize(cell) {
			if ct == token {
				want = true
			}
		}
		if got := containsToken(cell, token); got != want {
			t.Fatalf("containsToken(%q, %q) = %v, want %v", cell, token, got, want)
		}
	})
}
