package extract

import (
	"regexp"
	"strings"
	"testing"
)

// The fuzz targets below check structural properties, not exact outputs:
// parsers must never panic, must only return well-formed values on success,
// and the email renderer must produce output its own parser accepts. Seed
// corpora live in testdata/fuzz/<FuzzName>/.

func FuzzBibTeX(f *testing.F) {
	f.Add("@inproceedings{dong05,\n  author = {Xin Dong and Alon Halevy},\n  title = {Reference Reconciliation in Complex Information Spaces},\n  booktitle = {SIGMOD},\n  year = 2005,\n}")
	f.Add("@article(k99, journal = \"J. {Nested {Braces}} Here\", year = {1999})")
	f.Add("@comment{ignore {me} fully} @misc{x, note = unquoted}")
	f.Add("@string{sig = {SIGMOD}}\n@inproceedings{a, booktitle = sig}")
	f.Add("no entries at all")
	f.Add("@")
	f.Add("@inproceedings{unterminated, title = {oops")
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := ParseBibTeX(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "bibtex: line ") {
				t.Fatalf("error without line prefix: %v", err)
			}
			return
		}
		for _, e := range entries {
			if e.Type == "" {
				t.Fatalf("entry with empty type: %+v", e)
			}
			if e.Line < 1 {
				t.Fatalf("entry with line %d", e.Line)
			}
			if e.Type != strings.ToLower(e.Type) {
				t.Fatalf("type not lowercased: %q", e.Type)
			}
			for k, v := range e.Fields {
				if k == "" || k != strings.ToLower(k) {
					t.Fatalf("bad field name %q", k)
				}
				if strings.ContainsAny(v, "\n\t") || v != strings.TrimSpace(v) {
					t.Fatalf("field %q value not cleaned: %q", k, v)
				}
			}
			for _, a := range e.Authors() {
				if strings.TrimSpace(a) == "" {
					t.Fatal("empty author survived splitting")
				}
			}
		}
	})
}

func FuzzVCard(f *testing.F) {
	f.Add("BEGIN:VCARD\nFN:Alon Halevy\nN:Halevy;Alon;;;\nEMAIL;TYPE=work:alon@cs.example.edu\nEND:VCARD\n")
	f.Add("BEGIN:VCARD\r\nFN:Folded\r\n Name\r\nEND:VCARD\r\n")
	f.Add("BEGIN:VCARD\nFN:Unterminated")
	f.Add("END:VCARD\n")
	f.Add("BEGIN:VCARD\nBEGIN:VCARD\nEND:VCARD\n")
	f.Add(" leading continuation\nBEGIN:VCARD\nEND:VCARD")
	f.Add("BEGIN:VCARD\nN:OnlyLast\nEND:VCARD")
	f.Fuzz(func(t *testing.T, src string) {
		cards, err := ParseVCards(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "vcard: ") {
				t.Fatalf("error without vcard prefix: %v", err)
			}
			return
		}
		// A folded line continues the one before it, so "BEGI\n N:VCARD"
		// is a BEGIN line: count BEGIN with all whitespace removed.
		begins := strings.Count(strings.ToUpper(strings.Join(strings.Fields(src), "")), "BEGIN")
		if len(cards) > begins {
			t.Fatalf("%d cards from %d BEGIN lines", len(cards), begins)
		}
		for _, c := range cards {
			if c.FormattedName != strings.TrimSpace(c.FormattedName) {
				t.Fatalf("FN not trimmed: %q", c.FormattedName)
			}
			for _, e := range c.Emails {
				if e == "" || e != strings.TrimSpace(strings.ToLower(e)) {
					t.Fatalf("email not normalized: %q", e)
				}
			}
		}
	})
}

func FuzzEmail(f *testing.F) {
	f.Add("From: Alon Halevy <alon@cs.example.edu>\nTo: \"Dong, Xin\" <xin@cs.example.edu>, mike@db.example.org\nSubject: draft\nDate: Mon, 6 Jun 2005 10:00:00\nMessage-ID: <abc@mail>\n\nbody ignored")
	f.Add("From: bare@addr\n")
	f.Add("Subject: folded\n subject line\n")
	f.Add("not a header line")
	f.Add(" continuation first")
	f.Add("From: \"weird \\\" quote\" <a@b>\n")
	f.Add("From: <>\nTo: ,,,\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMessage(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "email: line ") {
				t.Fatalf("error without line prefix: %v", err)
			}
			return
		}
		// The renderer must emit text its own parser accepts and that
		// re-renders to a fixed point (generators rely on this round trip).
		r1 := RenderMessage(m)
		m2, err := ParseMessage(r1)
		if err != nil {
			t.Fatalf("rendered message does not re-parse: %v\nrendered:\n%s", err, r1)
		}
		r2 := RenderMessage(m2)
		if r1 != r2 {
			t.Fatalf("render/parse not a fixed point:\nfirst:\n%s\nsecond:\n%s", r1, r2)
		}
	})
}

var (
	fuzzYearRe  = regexp.MustCompile(`^(1[89]\d\d|20\d\d)$`)
	fuzzPagesRe = regexp.MustCompile(`^\d+-\d+$`)
)

func FuzzCitation(f *testing.F) {
	f.Add("R. Agrawal and R. Srikant. Fast algorithms for mining association rules. In Proc. VLDB, Santiago, 1994, pp. 487-499.")
	f.Add("Madhavan, J. Reference reconciliation in complex information spaces. SIGMOD, 2005.")
	f.Add("\\bibitem{ar94} R. Agrawal. {\\em Mining} rules. % comment\nProc.~VLDB, 1994.")
	f.Add("no structure")
	f.Add("...")
	f.Add("A. B. C. D. E. F.")
	f.Fuzz(func(t *testing.T, src string) {
		for _, text := range append(ParseBibItems(src), src) {
			c, ok := ParseCitation(text)
			if !ok {
				continue
			}
			if strings.TrimSpace(c.Title) == "" {
				t.Fatalf("ok parse with empty title from %q", text)
			}
			if c.Year != "" && !fuzzYearRe.MatchString(c.Year) {
				t.Fatalf("malformed year %q from %q", c.Year, text)
			}
			if c.Pages != "" && !fuzzPagesRe.MatchString(c.Pages) {
				t.Fatalf("malformed pages %q from %q", c.Pages, text)
			}
			for _, a := range c.Authors {
				if strings.TrimSpace(a) == "" {
					t.Fatalf("empty author from %q", text)
				}
			}
		}
	})
}
