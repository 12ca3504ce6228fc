"""The four workloads, by name (see README.md for why each exists)."""

from . import domains_5k, online_drift, serve_amazon13, train_taobao30

WORKLOADS = {
    module.NAME: module
    for module in (train_taobao30, serve_amazon13, online_drift, domains_5k)
}
