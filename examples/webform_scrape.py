"""End-to-end through the HTML web-form layer (the scraping path).

The paper's system talks to Google Base over HTTP: it discovers the search
form, submits queries as form requests and parses the result pages.  This
example runs the same pipeline against the in-process hidden web site: the
client learns the form's fields and top-k limit by parsing HTML, every query
becomes a query-string request, and every answer is scraped back out of a
rendered results table — then HDSampler runs on top, none the wiser.

Run with::

    python examples/webform_scrape.py
"""

from __future__ import annotations

from repro import HDSamplerConfig, SamplingService, TradeoffSlider
from repro.backends import engine_stack
from repro.database import CountMode
from repro.datasets import VehiclesConfig, generate_vehicles_table
from repro.datasets.vehicles import default_vehicles_ranking, vehicles_schema
from repro.web import HiddenWebSite, WebFormClient, parse_form_page


def main() -> None:
    # The data provider's side: database + web server rendering HTML pages.
    # Served from a backend stack whose accounting layer does not count —
    # the client's own AccountingLayer is then the one counter of issued
    # queries.
    table = generate_vehicles_table(VehiclesConfig(n_rows=4_000, seed=9))
    backend = engine_stack(
        table, k=100, ranking=default_vehicles_ranking(),
        count_mode=CountMode.NOISY, count_noise=0.3,   # Google-Base-style approximate counts
        display_columns=("title",),
        statistics=False,   # the scraping client owns the one query counter
    )
    site = HiddenWebSite(backend, site_name="Google Base Vehicles (simulated)")

    # The analyst's side: discover the form, configure the client, sample.
    form = parse_form_page(site.get(site.FORM_PATH))
    print(f"discovered form at {form.action!r} with fields: {', '.join(form.field_names)}")
    print(f"advertised top-k limit: {form.top_k}")
    print()

    client = WebFormClient(site, vehicles_schema(), display_columns=("title",))
    # use_history puts the service's HistoryLayer above the scraping client,
    # so repeated and inferable queries stop costing page fetches entirely.
    config = HDSamplerConfig(
        n_samples=150,
        attributes=("make", "color", "body_style"),
        tradeoff=TradeoffSlider(0.5),
        use_history=True,
        seed=13,
    )
    # The service neither knows nor cares that its backend is scraped HTML:
    # WebFormClient satisfies the same HiddenDatabase protocol.
    service = SamplingService(client)
    result = service.submit(config).run()
    history = service.backend_statistics()["shared_history"]

    print(result.render_histogram("make"))
    print()
    print(result.render_histogram("body_style"))
    print()
    print(
        f"{result.sample_count} samples scraped; the sampler asked for {history['submissions']} "
        f"queries but only {client.statistics.queries_issued} result pages were fetched "
        f"({site.pages_served} pages served in total, including the form page)"
    )
    print(
        f"the job's HistoryLayer answered {history['saved']} submissions "
        f"({history['saving_ratio']:.0%}) without any page fetch"
    )
    print("the reported counts on the result pages were approximate and HDSampler ignored")
    print("them, exactly as the paper does for Google Base.")


if __name__ == "__main__":
    main()
