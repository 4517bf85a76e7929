// Fixture: the sanctioned shapes — nothing may be flagged.

impl Store {
    fn scoped_guard(&self) {
        let text = {
            let s = self.inner.lock().expect("poisoned");
            s.render()
        };
        self.persist(&text).unwrap();
    }

    fn explicit_drop(&self) {
        let s = self.inner.lock().expect("poisoned");
        let text = s.render();
        drop(s);
        self.file.sync_all().unwrap();
    }

    fn io_read_is_not_a_guard(&self, stream: &mut TcpStream) {
        let mut buf = [0u8; 512];
        let _n = stream.read(&mut buf).unwrap();
        self.file.sync_data().unwrap();
    }

    fn open_options_append_flag(&self) {
        let g = self.m.lock().unwrap();
        let _f = OpenOptions::new().append(true).open("x").unwrap();
        drop(g);
    }

    fn journal_exception(&self) {
        let mut journal = self.journal.lock().expect("journal poisoned");
        // lint: allow(lock-across-io): dedicated disk-write lock, never taken by the read path
        journal.append(&event).unwrap();
    }

    fn if_let_guard_closed_before_io(&self) {
        if let Ok(mut s) = self.inner.lock() {
            s.dirty = false;
        }
        self.file.sync_all().unwrap();
    }

    fn chain_continuing_temporary(&self) {
        let n = self.inner.lock().unwrap().len();
        self.file.sync_data().unwrap();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_stage_locks() {
        let g = gate.lock().unwrap();
        file.sync_all().unwrap();
        drop(g);
    }
}
