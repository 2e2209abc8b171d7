package server

// BreakJournal closes the session's journal file underneath it, so every
// later append fails — the disk-full / yanked-volume case the write-ahead
// discipline has to survive.
func (s *Session) BreakJournal() {
	_ = s.do(func() { _ = s.jw.Close() })
}
