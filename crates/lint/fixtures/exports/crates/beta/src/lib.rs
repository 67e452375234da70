fn call() {
    alpha::used();
}
