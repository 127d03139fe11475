// Fixture: rule `obs-guard`. Never compiled — read as text by
// tests/fixtures.rs and linted under a virtual crates/core path.

impl Cluster {
    fn good(&mut self) {
        self.emit_with(|_| ObsEvent::Arrival { req: 1 }); // built in the closure: fine
        self.emit_with(|c| ObsEvent::UnitIdle {
            gpu: c.units[0].id(), // a multi-line closure is covered too
        });
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(self.now, &ObsEvent::QueueDepth { len: 3 }); // guarded: fine
        }
    }

    fn bad(&mut self) {
        let ev = ObsEvent::Arrival { req: 2 }; // line 16: finding (built outside the closure)
        self.emit_with(move |_| ev);
        let armed = self.recorder.is_some(); // the `;` disarms the guard
        if armed {
            self.emit(ObsEvent::Completion { req: 2 }); // line 20: finding
        }
    }

    // Type positions are not constructors: no finding.
    fn emit_with<'e>(&mut self, build: impl FnOnce(&Cluster) -> ObsEvent<'e>) {
        let _ = build;
    }
}
