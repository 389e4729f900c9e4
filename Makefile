# Convenience targets for the repro library.

.PHONY: install test bench figures claims examples export clean

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

figures:
	repro-experiments --all

claims:
	repro-experiments --verify-claims

examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; python $$f > /dev/null; done; echo "all examples OK"

export:
	repro-experiments --export results/

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		.hypothesis results
	find . -name __pycache__ -type d -exec rm -rf {} +
