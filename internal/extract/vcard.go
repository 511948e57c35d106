package extract

import (
	"fmt"
	"strings"
)

// VCard is one parsed address-book card (the "contacts" source the paper
// lists among its desktop inputs). Only the identity fields matter for
// reconciliation.
type VCard struct {
	FormattedName string   // FN
	Name          string   // N, reassembled "First Last" when present
	Emails        []string // EMAIL entries, in order
}

// DisplayName prefers FN over the reassembled N.
func (v VCard) DisplayName() string {
	if v.FormattedName != "" {
		return v.FormattedName
	}
	return v.Name
}

// ParseVCards parses a vCard 3.0-style stream: one or more BEGIN:VCARD /
// END:VCARD blocks with property lines (parameters after ';' on the
// property name are ignored; long lines folded with leading whitespace are
// unfolded). Unknown properties are skipped. Structural errors (END
// without BEGIN, unterminated card) are reported with line numbers.
func ParseVCards(src string) ([]VCard, error) {
	// Unfold continuation lines.
	lines := strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n")
	var unfolded []string
	lineNo := make([]int, 0, len(lines))
	for i, line := range lines {
		if (strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")) && len(unfolded) > 0 {
			unfolded[len(unfolded)-1] += strings.TrimLeft(line, " \t")
			continue
		}
		unfolded = append(unfolded, line)
		lineNo = append(lineNo, i+1)
	}

	var cards []VCard
	var cur *VCard
	for i, line := range unfolded {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		prop := strings.ToUpper(name)
		if j := strings.IndexByte(prop, ';'); j >= 0 {
			prop = prop[:j]
		}
		switch prop {
		case "BEGIN":
			if !strings.EqualFold(value, "VCARD") {
				continue
			}
			if cur != nil {
				return nil, fmt.Errorf("vcard: line %d: BEGIN inside a card", lineNo[i])
			}
			cur = &VCard{}
		case "END":
			if !strings.EqualFold(value, "VCARD") {
				continue
			}
			if cur == nil {
				return nil, fmt.Errorf("vcard: line %d: END without BEGIN", lineNo[i])
			}
			cards = append(cards, *cur)
			cur = nil
		case "FN":
			if cur != nil {
				cur.FormattedName = strings.TrimSpace(value)
			}
		case "N":
			if cur != nil {
				// N is Last;First;Middle;Prefix;Suffix.
				parts := strings.Split(value, ";")
				var fields []string
				if len(parts) > 1 && strings.TrimSpace(parts[1]) != "" {
					fields = append(fields, strings.TrimSpace(parts[1]))
				}
				if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
					fields = append(fields, strings.TrimSpace(parts[2]))
				}
				if strings.TrimSpace(parts[0]) != "" {
					fields = append(fields, strings.TrimSpace(parts[0]))
				}
				cur.Name = strings.Join(fields, " ")
			}
		case "EMAIL":
			if cur != nil && strings.TrimSpace(value) != "" {
				cur.Emails = append(cur.Emails, strings.TrimSpace(strings.ToLower(value)))
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("vcard: unterminated card at end of input")
	}
	return cards, nil
}
