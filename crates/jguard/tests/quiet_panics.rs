//! `with_quiet_panics` silences injected panics only. A panic without the
//! injected marker still reaches the hook installed before, and that hook
//! is back in place after the closure unwinds. The panic hook is
//! process-global, so this is the only test in its binary.

use std::panic::{catch_unwind, set_hook, take_hook};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

use jguard::{with_quiet_panics, INJECTED_PANIC_MSG};

static REAL: AtomicU64 = AtomicU64::new(0);
static INJECTED: AtomicU64 = AtomicU64::new(0);

#[test]
fn only_injected_panics_are_silenced_and_the_hook_comes_back() {
    let original = take_hook();
    set_hook(Box::new(|info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if text.contains(INJECTED_PANIC_MSG) {
            INJECTED.fetch_add(1, SeqCst);
        } else {
            REAL.fetch_add(1, SeqCst);
        }
    }));

    let unwound = catch_unwind(|| {
        with_quiet_panics(|| {
            let injected = catch_unwind(|| panic!("{INJECTED_PANIC_MSG}: bomb"));
            assert!(injected.is_err());
            panic!("a real bug");
        })
    });
    let payload = unwound.expect_err("the closure's panic propagates");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"a real bug"));
    assert_eq!(INJECTED.load(SeqCst), 0, "the injected panic is silenced");
    assert_eq!(
        REAL.load(SeqCst),
        1,
        "the real panic reaches the previous hook"
    );

    // After the unwind the previous hook is installed again: it sees
    // injected panics too.
    let _ = catch_unwind(|| panic!("{INJECTED_PANIC_MSG}: after"));
    let _ = catch_unwind(|| panic!("after"));
    assert_eq!(INJECTED.load(SeqCst), 1);
    assert_eq!(REAL.load(SeqCst), 2);

    // And after a normal return.
    assert_eq!(with_quiet_panics(|| 7), 7);
    let _ = catch_unwind(|| panic!("{INJECTED_PANIC_MSG}: after return"));
    assert_eq!(INJECTED.load(SeqCst), 2);

    set_hook(original);
}
