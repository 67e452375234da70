#[test]
fn t() {
    alpha::tested();
}
