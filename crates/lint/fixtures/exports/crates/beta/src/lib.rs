#![forbid(unsafe_code)]

fn call() {
    alpha::used();
}
