package protein

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// FastaRecord is one entry of a FASTA file: Stage 3 of the IMPRESS
// pipeline compiles the highest-ranking designed sequences into FASTA for
// the AlphaFold stage.
type FastaRecord struct {
	// Header is the text after '>' (without the marker).
	Header string
	// Seq is the record's sequence. Multi-chain complexes follow the
	// AlphaFold-multimer convention of joining chains with ':'.
	Seq string
}

// fastaWidth is the line-wrap column for sequence data.
const fastaWidth = 60

// WriteFasta writes records in FASTA format, wrapping sequence lines at 60
// columns.
func WriteFasta(w io.Writer, records []FastaRecord) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if strings.ContainsAny(r.Header, "\n\r") {
			return fmt.Errorf("protein: FASTA header contains newline: %q", r.Header)
		}
		if len(r.Seq) == 0 {
			return fmt.Errorf("protein: FASTA record %q has empty sequence", r.Header)
		}
		if _, err := fmt.Fprintf(bw, ">%s\n", r.Header); err != nil {
			return err
		}
		for i := 0; i < len(r.Seq); i += fastaWidth {
			end := i + fastaWidth
			if end > len(r.Seq) {
				end = len(r.Seq)
			}
			if _, err := fmt.Fprintf(bw, "%s\n", r.Seq[i:end]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// FastaString renders records to a string, panicking on the (programmer)
// errors WriteFasta reports.
func FastaString(records []FastaRecord) string {
	var sb strings.Builder
	if err := WriteFasta(&sb, records); err != nil {
		panic(err)
	}
	return sb.String()
}
